open Dq_relation
module Metrics = Dq_obs.Metrics

let m_lookups = Metrics.counter "inc.nearest_lookups"

let m_distance_calls = Metrics.counter "inc.distance_calls"

(* One distinct rendering and every indexed value that renders as it
   ([Int 1] and [String "1"] share an entry). *)
type entry = { text : string; mutable values : Value.t list }

type t = {
  frequency : Value.t -> int;
  by_text : (string, entry) Hashtbl.t;
  by_length : entry Vec.t Vec.t; (* rendering length -> entries *)
  mutable size : int;
}

let bucket t len =
  while Vec.length t.by_length <= len do
    Vec.push t.by_length (Vec.create ())
  done;
  Vec.get t.by_length len

let add t v =
  if not (Value.is_null v) then begin
    let text = Value.to_string v in
    match Hashtbl.find_opt t.by_text text with
    | Some e ->
      if not (List.exists (Value.equal v) e.values) then begin
        e.values <- v :: e.values;
        t.size <- t.size + 1
      end
    | None ->
      let e = { text; values = [ v ] } in
      Hashtbl.add t.by_text text e;
      Vec.push (bucket t (String.length text)) e;
      t.size <- t.size + 1
  end

let build ?(frequency = fun _ -> 0) values =
  let t =
    { frequency; by_text = Hashtbl.create 64; by_length = Vec.create (); size = 0 }
  in
  List.iter (add t) values;
  t

let of_attribute rel pos =
  build ~frequency:(Relation.domain_count rel pos) (Relation.active_domain rel pos)

let size t = t.size

let min (a : int) b = if a <= b then a else b

(* [Cost.dl_distance s q] when it is at most [bound], and [bound + 1]
   otherwise.  [rows] holds three scratch rows of length [|q| + 1].  No
   cell is below the smallest cell of the row above it (a transposition
   from two rows up costs 1, and [d(i-1, j-1) <= d(i-2, j-2) + 1]), so
   once a whole row exceeds [bound] the answer does too. *)
let bounded_distance rows ~bound s q =
  let m = String.length s and n = String.length q in
  if abs (m - n) > bound then bound + 1
  else if m = 0 then n
  else if n = 0 then m
  else begin
    let r2, r1, r0 = rows in
    let prev2 = ref r2 and prev = ref r1 and curr = ref r0 in
    for j = 0 to n do
      !prev.(j) <- j
    done;
    let cut = ref false and i = ref 1 in
    while (not !cut) && !i <= m do
      let i' = !i in
      let p2 = !prev2 and p = !prev and c = !curr in
      c.(0) <- i';
      let row_min = ref i' in
      for j = 1 to n do
        let sc = String.unsafe_get s (i' - 1) in
        let qc = String.unsafe_get q (j - 1) in
        let best =
          min (min (p.(j) + 1) (c.(j - 1) + 1)) (p.(j - 1) + if sc = qc then 0 else 1)
        in
        let best =
          if i' > 1 && j > 1 && sc = q.[j - 2] && s.[i' - 2] = qc then
            min best (p2.(j - 2) + 1)
          else best
        in
        c.(j) <- best;
        if best < !row_min then row_min := best
      done;
      if !row_min > bound then cut := true;
      prev2 := p;
      prev := c;
      curr := p2;
      incr i
    done;
    if !cut then bound + 1 else !prev.(n)
  end

(* The lookup order: distance, then the more frequent value, then
   [Value.compare] — a total order, so the answer does not depend on the
   order values were added in. *)
let compare_hit (d1, f1, v1) (d2, f2, v2) =
  match Int.compare d1 d2 with
  | 0 -> ( match Int.compare f2 f1 with 0 -> Value.compare v1 v2 | c -> c)
  | c -> c

let nearest t query ~k =
  let q = Value.to_string query in
  let n = String.length q in
  let rows = (Array.make (n + 1) 0, Array.make (n + 1) 0, Array.make (n + 1) 0) in
  let calls = ref 0 in
  (* The best hits so far, ascending, at most [k] of them. *)
  let hits = ref [] and kth = ref max_int in
  let offer d v =
    let hit = (d, t.frequency v, v) in
    let rec insert = function
      | [] -> [ hit ]
      | h :: rest as l -> if compare_hit hit h < 0 then hit :: l else h :: insert rest
    in
    let l = insert !hits in
    hits := if List.length l > k then List.filteri (fun i _ -> i < k) l else l;
    if List.length !hits = k then kth := (let d, _, _ = List.nth !hits (k - 1) in d)
  in
  let scan len =
    if len >= 0 && len < Vec.length t.by_length then
      Vec.iter
        (fun e ->
          incr calls;
          let d = bounded_distance rows ~bound:!kth e.text q in
          if d <= !kth then List.iter (offer d) e.values)
        (Vec.get t.by_length len)
  in
  (* DL distance is at least the length gap, so buckets are visited
     outward from [|q|] until the gap exceeds the k-th distance. *)
  let longest = Vec.length t.by_length - 1 in
  let gap = ref 0 in
  if k > 0 then
    while !gap <= !kth && (n - !gap >= 0 || n + !gap <= longest) do
      scan (n - !gap);
      if !gap > 0 then scan (n + !gap);
      incr gap
    done;
  Metrics.incr m_lookups;
  Metrics.add m_distance_calls !calls;
  List.map (fun (_, _, v) -> v) !hits
