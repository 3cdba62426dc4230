open Dq_relation

type t = {
  sigma : Cfd.t array;
  index : Clause_index.t;
  tables : Value.t Vkey.Table.t array; (* per embedded FD *)
}

(* A key matches a wildcard row either for every tuple holding it or for
   none, and only matching keys are ever looked up, so indexing every
   tuple keeps each lookup identical to a per-clause table holding only
   the matching tuples: the first non-null RHS value per key wins either
   way. *)
let add_tuple idx t =
  Array.iteri
    (fun f table ->
      let v = Tuple.get t (Clause_index.fd_rhs idx.index f) in
      if not (Value.is_null v) then begin
        let key = Clause_index.fd_key idx.index f (Tuple.get t) in
        if not (Vkey.Table.mem table key) then Vkey.Table.add table key v
      end)
    idx.tables

let build sigma rel =
  let index = Clause_index.compile sigma in
  let idx =
    {
      sigma;
      index;
      tables =
        Array.init (Clause_index.fd_count index) (fun _ ->
            Vkey.Table.create 256);
    }
  in
  Relation.iter (fun t -> add_tuple idx t) rel;
  idx

let expected_rhs idx cfd t =
  if not (Cfd.applies_lhs cfd t) then None
  else
    match Cfd.rhs_pattern cfd with
    | Pattern.Const a -> Some a
    | Pattern.Wild ->
      let f = Clause_index.fd idx.index (Cfd.id cfd) in
      Vkey.Table.find_opt idx.tables.(f)
        (Clause_index.fd_key idx.index f (Tuple.get t))

let violates idx cfd t =
  match expected_rhs idx cfd t with
  | None -> false
  | Some expected ->
    let v = Tuple.get t (Cfd.rhs cfd) in
    (not (Value.is_null v)) && not (Value.equal v expected)

let vio idx t =
  let n = ref 0 in
  Clause_index.iter_candidates idx.index (Tuple.get t) (fun i ->
      if violates idx idx.sigma.(i) t then incr n);
  !n
