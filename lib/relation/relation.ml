type t = {
  schema : Schema.t;
  by_tid : (int, Tuple.t) Hashtbl.t;
  mutable order : int Vec.t; (* insertion order; may contain deleted tids *)
  mutable deleted : int; (* stale entries in [order], compacted lazily *)
  mutable next_tid : int;
  adom : (Value.t, int ref) Hashtbl.t array; (* per-attribute value counts *)
}

let create schema =
  {
    schema;
    by_tid = Hashtbl.create 64;
    order = Vec.create ();
    deleted = 0;
    next_tid = 0;
    adom = Array.init (Schema.arity schema) (fun _ -> Hashtbl.create 64);
  }

let schema r = r.schema

let cardinality r = Hashtbl.length r.by_tid

let adom_incr r pos v =
  if not (Value.is_null v) then
    match Hashtbl.find_opt r.adom.(pos) v with
    | Some n -> incr n
    | None -> Hashtbl.add r.adom.(pos) v (ref 1)

let adom_decr r pos v =
  if not (Value.is_null v) then
    match Hashtbl.find_opt r.adom.(pos) v with
    | Some n ->
      decr n;
      if !n <= 0 then Hashtbl.remove r.adom.(pos) v
    | None -> ()

let register r t =
  Hashtbl.add r.by_tid (Tuple.tid t) t;
  Vec.push r.order (Tuple.tid t);
  for i = 0 to Tuple.arity t - 1 do
    adom_incr r i (Tuple.get t i)
  done;
  if Tuple.tid t >= r.next_tid then r.next_tid <- Tuple.tid t + 1

let insert ?weights r values =
  if Array.length values <> Schema.arity r.schema then
    invalid_arg "Relation.insert: arity mismatch";
  let t = Tuple.create ?weights ~tid:r.next_tid values in
  register r t;
  t

let add r t =
  if Tuple.arity t <> Schema.arity r.schema then
    invalid_arg "Relation.add: arity mismatch";
  if Hashtbl.mem r.by_tid (Tuple.tid t) then
    invalid_arg (Printf.sprintf "Relation.add: duplicate tid %d" (Tuple.tid t));
  register r t

let compact r =
  (* Drop stale tids from the order vector once they dominate it. *)
  if r.deleted > 32 && r.deleted * 2 > Vec.length r.order then begin
    r.order <- Vec.filter (Hashtbl.mem r.by_tid) r.order;
    r.deleted <- 0
  end

let delete r tid =
  match Hashtbl.find_opt r.by_tid tid with
  | None -> false
  | Some t ->
    for i = 0 to Tuple.arity t - 1 do
      adom_decr r i (Tuple.get t i)
    done;
    Hashtbl.remove r.by_tid tid;
    r.deleted <- r.deleted + 1;
    compact r;
    true

let find r tid = Hashtbl.find_opt r.by_tid tid

let find_exn r tid = Hashtbl.find r.by_tid tid

let mem r tid = Hashtbl.mem r.by_tid tid

let set_value r t pos v =
  (match find r (Tuple.tid t) with
  | Some t' when t' == t -> ()
  | _ -> invalid_arg "Relation.set_value: tuple not in this relation");
  adom_decr r pos (Tuple.get t pos);
  Tuple.set t pos v;
  adom_incr r pos v

let iter f r =
  Vec.iter
    (fun tid ->
      match Hashtbl.find_opt r.by_tid tid with
      | Some t -> f t
      | None -> ())
    r.order

let fold f acc r =
  let acc = ref acc in
  iter (fun t -> acc := f !acc t) r;
  !acc

let to_list r = List.rev (fold (fun acc t -> t :: acc) [] r)

let tuples r =
  let out = Vec.create () in
  iter (Vec.push out) r;
  Vec.to_array out

let active_domain r pos =
  let vals = Hashtbl.fold (fun v _ acc -> v :: acc) r.adom.(pos) [] in
  List.sort Value.compare vals

let active_domain_size r pos = Hashtbl.length r.adom.(pos)

let domain_count r pos v =
  match Hashtbl.find_opt r.adom.(pos) v with Some n -> !n | None -> 0

let in_active_domain r pos v = Hashtbl.mem r.adom.(pos) v

let copy r =
  let r' = create r.schema in
  iter (fun t -> add r' (Tuple.copy t)) r;
  r'

let dif d1 d2 =
  let arity = Schema.arity (schema d1) in
  let count = ref 0 in
  iter
    (fun t1 ->
      match find d2 (Tuple.tid t1) with
      | Some t2 -> count := !count + List.length (Tuple.diff_positions t1 t2)
      | None -> count := !count + arity)
    d1;
  iter
    (fun t2 -> if not (mem d1 (Tuple.tid t2)) then count := !count + arity)
    d2;
  !count

let pp ppf r =
  let attrs = Schema.attributes r.schema in
  let rows = tuples r in
  let cell t i = Value.to_display (Tuple.get t i) in
  let widths =
    Array.mapi
      (fun i a ->
        Array.fold_left
          (fun w t -> max w (String.length (cell t i)))
          (String.length a) rows)
      attrs
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%s  | " (pad "tid" 5);
  Array.iteri (fun i a -> Format.fprintf ppf "%s " (pad a widths.(i))) attrs;
  Format.fprintf ppf "@,";
  Array.iter
    (fun t ->
      Format.fprintf ppf "%s  | " (pad (string_of_int (Tuple.tid t)) 5);
      Array.iteri
        (fun i _ -> Format.fprintf ppf "%s " (pad (cell t i) widths.(i)))
        attrs;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"
