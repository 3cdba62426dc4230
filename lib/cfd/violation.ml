open Dq_relation
module Pool = Dq_parallel.Pool
module Metrics = Dq_obs.Metrics
module Trace = Dq_obs.Trace

(* Entry-span arguments: the scan's input sizes. *)
let scan_args rel sigma () =
  [
    ("tuples", Dq_obs.Json.Int (Relation.cardinality rel));
    ("clauses", Dq_obs.Json.Int (Array.length sigma));
  ]

(* Detection instruments (no-ops unless metrics collection is enabled):
   scans made, violations surfaced, and wall time per entry point. *)
let m_scans = Metrics.counter "violation.scans"

let m_found = Metrics.counter "violation.found"

let m_find_all = Metrics.timer "violation.find_all"

let m_vio_counts = Metrics.timer "violation.vio_counts"

let m_satisfies = Metrics.timer "violation.satisfies"

type t =
  | Single of { tid : int; cfd : Cfd.t }
  | Pair of { tid1 : int; tid2 : int; cfd : Cfd.t }

let cfd_of = function Single { cfd; _ } -> cfd | Pair { cfd; _ } -> cfd

let tids = function
  | Single { tid; _ } -> [ tid ]
  | Pair { tid1; tid2; _ } -> [ tid1; tid2 ]

let pp ppf = function
  | Single { tid; cfd } ->
    Format.fprintf ppf "tuple #%d violates %a" tid Cfd.pp cfd
  | Pair { tid1; tid2; cfd } ->
    Format.fprintf ppf "tuples #%d and #%d violate %a" tid1 tid2 Cfd.pp cfd

let violates_constant cfd t =
  match Cfd.rhs_pattern cfd with
  | Pattern.Wild -> false
  | Pattern.Const a ->
    Cfd.applies_lhs cfd t
    &&
    let v = Tuple.get t (Cfd.rhs cfd) in
    (not (Value.is_null v)) && not (Value.equal v a)

(* ---- constant clauses ------------------------------------------------- *)

(* Check tuples [lo, hi) against the constant clauses the compiled Σ
   offers each of them: [single i cfd] per violation, in relation order
   and, per tuple, in candidate order.  [stop] is polled before each
   tuple.  Pure reads only — safe to run concurrently over disjoint
   chunks. *)
let scan_constants ?(stop = fun () -> false) idx sigma tuples ~single lo hi =
  let i = ref lo in
  while !i < hi && not (stop ()) do
    let t = tuples.(!i) in
    Clause_index.iter_candidates idx (Tuple.get t) (fun c ->
        if Clause_index.fd idx c < 0 && violates_constant sigma.(c) t then
          single !i sigma.(c));
    incr i
  done

(* ---- wildcard clauses: one group table per embedded FD ---------------- *)

(* The tuples matching at least one wildcard row of an embedded FD,
   grouped by their X values, with RHS value multiplicities.  All
   pair-violation queries reduce to these statistics.  Matching depends on
   X alone, so [rows] — the matched wildcard clauses, ascending — is the
   same for every member.  [members] holds tuple positions: in relation
   order once merged, reversed while a chunk is being scanned. *)
type group = {
  mutable members : int list;
  rhs_counts : (Value.t, int ref) Hashtbl.t; (* non-null RHS values *)
  mutable non_null : int;
  rows : int list;
}

let chunk_groups idx sigma f tuples lo hi =
  let table = Vkey.Table.create 256 in
  let rhs = Clause_index.fd_rhs idx f in
  for i = lo to hi - 1 do
    let t = tuples.(i) in
    let rows = ref [] in
    Clause_index.iter_fd_rows idx f (Tuple.get t) (fun c ->
        if Cfd.applies_lhs sigma.(c) t then rows := c :: !rows);
    if !rows <> [] then begin
      let key = Clause_index.fd_key idx f (Tuple.get t) in
      let g =
        match Vkey.Table.find_opt table key with
        | Some g -> g
        | None ->
          let g =
            {
              members = [];
              rhs_counts = Hashtbl.create 4;
              non_null = 0;
              rows = List.sort Int.compare !rows;
            }
          in
          Vkey.Table.add table key g;
          g
      in
      g.members <- i :: g.members;
      let v = Tuple.get t rhs in
      if not (Value.is_null v) then begin
        g.non_null <- g.non_null + 1;
        match Hashtbl.find_opt g.rhs_counts v with
        | Some n -> incr n
        | None -> Hashtbl.add g.rhs_counts v (ref 1)
      end
    end
  done;
  table

(* Merge chunk tables into one table whose member lists are in relation
   order.  Chunks are folded from last to first so each group's members
   are rebuilt by prepending whole (already-ordered) chunk segments —
   O(total members), and the result is independent of chunk boundaries.
   The chunk groups are reused, so the chunk tables are dead afterwards. *)
let merge_chunk_groups chunk_tables =
  let merged = Vkey.Table.create 256 in
  List.iter
    (fun chunk_table ->
      Vkey.Table.iter
        (fun key (cg : group) ->
          match Vkey.Table.find_opt merged key with
          | None ->
            cg.members <- List.rev cg.members;
            Vkey.Table.add merged key cg
          | Some g ->
            g.members <- List.rev_append cg.members g.members;
            g.non_null <- g.non_null + cg.non_null;
            Hashtbl.iter
              (fun v n ->
                match Hashtbl.find_opt g.rhs_counts v with
                | Some m -> m := !m + !n
                | None -> Hashtbl.add g.rhs_counts v (ref !n))
              cg.rhs_counts)
        chunk_table)
    (List.rev chunk_tables);
  merged

(* Embedded FD [f]'s group table over the tuple snapshot: one pool
   barrier, whatever the number of pattern rows sharing the FD. *)
let groups_of_fd ?pool ?deadline idx sigma tuples f =
  merge_chunk_groups
    (Pool.map_chunks ?deadline ~label:"groups.chunk" pool
       ~n:(Array.length tuples) (chunk_groups idx sigma f tuples))

let group_conflicts g = Hashtbl.length g.rhs_counts >= 2

(* Number of pair violations a tuple with RHS value [v] incurs inside its
   group, per matched row: members whose RHS value is non-null and
   different from [v]. *)
let group_vio_of g v =
  if Value.is_null v then 0
  else
    let same =
      match Hashtbl.find_opt g.rhs_counts v with Some n -> !n | None -> 0
    in
    g.non_null - same

(* ---- the public detection API ----------------------------------------- *)

(* Every function below follows the same partition-and-merge shape: scan
   the tuple snapshot in chunks against the compiled Σ — once for the
   constant clauses, then once per embedded FD — with chunk results merged
   in chunk-index order.  Chunk boundaries never influence the merged
   result, so output is byte-identical at any job count — including the
   no-pool path, which is the same code on a single chunk. *)

let find_all ?pool rel sigma =
  Trace.span ~cat:"violation" ~args:(scan_args rel sigma) "find_all"
  @@ fun () ->
  Metrics.time m_find_all @@ fun () ->
  Metrics.incr m_scans;
  let tuples = Relation.tuples rel in
  let idx = Clause_index.compile sigma in
  let singles =
    Pool.map_chunks ~label:"find_all.chunk" pool ~n:(Array.length tuples)
      (fun lo hi ->
        let out = ref [] in
        scan_constants idx sigma tuples lo hi ~single:(fun i cfd ->
            out := Single { tid = Tuple.tid tuples.(i); cfd } :: !out);
        List.rev !out)
  in
  (* One pair per involved tuple and matched row, each against a witness
     with a different (non-null) RHS value, so every involved tuple is
     reported without a quadratic listing.  The witness is the group's
     first such member in relation order.  Pairs are then ordered by
     clause, and by tuple within a clause. *)
  let pairs = ref [] in
  for f = 0 to Clause_index.fd_count idx - 1 do
    let rhs_of i = Tuple.get tuples.(i) (Clause_index.fd_rhs idx f) in
    Vkey.Table.iter
      (fun _key g ->
        if group_conflicts g then
          List.iter
            (fun i ->
              let v = rhs_of i in
              if group_vio_of g v > 0 then begin
                let witness =
                  List.find
                    (fun j ->
                      let v' = rhs_of j in
                      (not (Value.is_null v')) && not (Value.equal v v'))
                    g.members
                in
                let tid1 = Tuple.tid tuples.(i)
                and tid2 = Tuple.tid tuples.(witness) in
                List.iter
                  (fun c ->
                    pairs :=
                      ((c, i), Pair { tid1; tid2; cfd = sigma.(c) }) :: !pairs)
                  g.rows
              end)
            g.members)
      (groups_of_fd ?pool idx sigma tuples f)
  done;
  let pairs =
    List.sort (fun (k1, _) (k2, _) -> compare k1 k2) !pairs |> List.map snd
  in
  let all = List.concat singles @ pairs in
  if Metrics.enabled () then Metrics.add m_found (List.length all);
  all

let vio_counts ?pool ?deadline rel sigma =
  Trace.span ~cat:"violation" ~args:(scan_args rel sigma) "vio_counts"
  @@ fun () ->
  Metrics.time m_vio_counts @@ fun () ->
  Metrics.incr m_scans;
  let tuples = Relation.tuples rel in
  let idx = Clause_index.compile sigma in
  (* vio(t) per tuple position.  Chunks write only their own slots, so the
     array needs no locking. *)
  let counts = Array.make (Array.length tuples) 0 in
  Pool.for_chunks ?deadline ~label:"vio_counts.chunk" pool
    ~n:(Array.length tuples) (fun lo hi ->
      scan_constants idx sigma tuples lo hi ~single:(fun i _ ->
          counts.(i) <- counts.(i) + 1));
  for f = 0 to Clause_index.fd_count idx - 1 do
    let rhs = Clause_index.fd_rhs idx f in
    Vkey.Table.iter
      (fun _key g ->
        if group_conflicts g then
          let rows = List.length g.rows in
          List.iter
            (fun i ->
              counts.(i) <-
                counts.(i) + (rows * group_vio_of g (Tuple.get tuples.(i) rhs)))
            g.members)
      (groups_of_fd ?pool ?deadline idx sigma tuples f)
  done;
  if Metrics.enabled () then Metrics.add m_found (Array.fold_left ( + ) 0 counts);
  (* Materialised in relation order, so the table's internal layout (and
     hence any fold over it) is identical at every job count. *)
  let out = Hashtbl.create 256 in
  Array.iteri
    (fun i c -> if c > 0 then Hashtbl.add out (Tuple.tid tuples.(i)) c)
    counts;
  out

let violating_tids rel sigma =
  let counts = vio_counts rel sigma in
  Relation.fold
    (fun acc t -> if Hashtbl.mem counts (Tuple.tid t) then Tuple.tid t :: acc else acc)
    [] rel
  |> List.rev

let satisfies ?pool rel sigma =
  Trace.span ~cat:"violation" ~args:(scan_args rel sigma) "satisfies"
  @@ fun () ->
  Metrics.time m_satisfies @@ fun () ->
  Metrics.incr m_scans;
  let tuples = Relation.tuples rel in
  let idx = Clause_index.compile sigma in
  let found = Atomic.make false in
  Pool.for_chunks ~label:"satisfies.chunk" pool ~n:(Array.length tuples)
    (fun lo hi ->
      scan_constants idx sigma tuples lo hi
        ~stop:(fun () -> Atomic.get found)
        ~single:(fun _ _ -> Atomic.set found true));
  let fd_holds f =
    try
      Vkey.Table.iter
        (fun _key g -> if group_conflicts g then raise Exit)
        (groups_of_fd ?pool idx sigma tuples f);
      true
    with Exit -> false
  in
  (not (Atomic.get found))
  && List.for_all fd_holds (List.init (Clause_index.fd_count idx) Fun.id)
