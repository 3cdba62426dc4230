open Dq_relation

(* Clauses anchored on their first constant LHS pattern, looked up by the
   tuple's own value at that position. *)
type lookup = {
  mutable plain : int list; (* all-wildcard-LHS clauses, in Σ order *)
  anchored : (int * Value.t, int list) Hashtbl.t;
  mutable positions : int list; (* distinct anchor positions, ascending *)
}

type fd = { x : int array; (* ascending *) a : int; rows : lookup }

type t = {
  all : lookup;
  fds : fd array;
  fd_of : int array; (* clause -> embedded FD, -1 for a constant RHS *)
}

let new_lookup () = { plain = []; anchored = Hashtbl.create 16; positions = [] }

let add lookup anchor i =
  match anchor with
  | None -> lookup.plain <- i :: lookup.plain
  | Some ((p, _) as key) ->
    lookup.positions <- p :: lookup.positions;
    let prev =
      match Hashtbl.find_opt lookup.anchored key with Some l -> l | None -> []
    in
    Hashtbl.replace lookup.anchored key (i :: prev)

let seal lookup =
  lookup.plain <- List.rev lookup.plain;
  lookup.positions <- List.sort_uniq Int.compare lookup.positions

let compile sigma =
  let all = new_lookup () in
  let fd_ids = Hashtbl.create 16 in
  let fds = ref [] in
  let fd_of = Array.make (Array.length sigma) (-1) in
  Array.iteri
    (fun i cfd ->
      let lhs = Cfd.lhs cfd and pats = Cfd.lhs_patterns cfd in
      let anchor = ref None in
      Array.iteri
        (fun j pos ->
          if !anchor = None then
            match pats.(j) with
            | Pattern.Const c -> anchor := Some (pos, c)
            | Pattern.Wild -> ())
        lhs;
      add all !anchor i;
      if not (Cfd.is_constant cfd) then begin
        Array.sort Int.compare lhs;
        let f, fd =
          match Hashtbl.find_opt fd_ids (lhs, Cfd.rhs cfd) with
          | Some known -> known
          | None ->
            let fd = { x = lhs; a = Cfd.rhs cfd; rows = new_lookup () } in
            let f = Hashtbl.length fd_ids in
            Hashtbl.add fd_ids (lhs, Cfd.rhs cfd) (f, fd);
            fds := fd :: !fds;
            (f, fd)
        in
        fd_of.(i) <- f;
        add fd.rows !anchor i
      end)
    sigma;
  let fds = Array.of_list (List.rev !fds) in
  seal all;
  Array.iter (fun fd -> seal fd.rows) fds;
  { all; fds; fd_of }

let iter lookup get f =
  List.iter f lookup.plain;
  List.iter
    (fun p ->
      match Hashtbl.find_opt lookup.anchored (p, get p) with
      | Some l -> List.iter f l
      | None -> ())
    lookup.positions

let iter_candidates idx get f = iter idx.all get f

let fd_count idx = Array.length idx.fds

let fd idx i = idx.fd_of.(i)

let fd_rhs idx f = idx.fds.(f).a

let fd_key idx f get = Array.map get idx.fds.(f).x

let iter_fd_rows idx f get k = iter idx.fds.(f).rows get k
