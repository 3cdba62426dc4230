open Dq_relation
open Dq_cfd
module Pool = Dq_parallel.Pool
module Metrics = Dq_obs.Metrics
module Provenance = Dq_obs.Provenance
module Report = Dq_obs.Report
module Trace = Dq_obs.Trace
module Progress = Dq_obs.Progress
module Fault = Dq_fault.Fault
module Deadline = Dq_fault.Deadline

let src = Logs.Src.create "dataqual.batch_repair" ~doc:"BATCHREPAIR steps"

module Log = (val Logs.src_log src : Logs.LOG)

let m_steps = Metrics.counter "batch.resolve_steps"

let m_merges = Metrics.counter "batch.merges"

let m_rescans = Metrics.counter "batch.rescans"

let m_t_init = Metrics.timer "batch.phase.init"

let m_t_scan = Metrics.timer "batch.phase.initial_scan"

let m_t_resolve = Metrics.timer "batch.phase.resolve"

let m_t_write = Metrics.timer "batch.phase.write_back"

let timed = Report.phase_m

type stats = {
  steps : int;
  merges : int;
  rhs_fixes : int;
  lhs_fixes : int;
  nulls_introduced : int;
  cells_changed : int;
  instantiate_visits : int;
  runtime : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>steps=%d merges=%d rhs_fixes=%d lhs_fixes=%d nulls=%d \
     cells_changed=%d runtime=%.3fs@]"
    s.steps s.merges s.rhs_fixes s.lhs_fixes s.nulls_introduced s.cells_changed
    s.runtime

type action =
  | Set_rhs of { cell : int; value : Value.t }
  | Merge of { cell1 : int; cell2 : int }
  | Set_lhs of { cell : int; target : Eqclass.target }

type plan = { cost : float; action : action }

(* Every decision below reads hash tables only through order-free
   queries — membership, the smallest conflicting tid, value-sorted weight
   lists, sorted offer and instantiation orders — never through iteration
   order.  A run resumed from a checkpoint rebuilds its tables with a
   different insertion history, so this is what lets it replay the
   uninterrupted run byte for byte, and it makes [~checkpoint] change
   nothing in the output. *)
type state = {
  rel : Relation.t; (* working copy; values untouched until write-back *)
  sigma : Cfd.t array;
  lhs_of : int array array; (* cfd id -> LHS positions *)
  lhs_pats_of : Pattern.t array array;
  eq : Eqclass.t;
  arity : int;
  buckets : (int, unit) Hashtbl.t Vkey.Table.t array;
  (* embedded FD -> effective X (ascending positions, no null) -> tids.
     Tuples that agree on X all match a row's tp[X] or none do, so a
     clause's group is its bucket once [eff_matches_lhs] holds. *)
  bucket_key : (int, Vkey.t) Hashtbl.t array; (* embedded FD: tid -> its key *)
  index : Clause_index.t;
  (* Σ's anchored clause lookup, probed with effective values: it prunes
     the (potentially thousands of) pattern rows to the handful a tuple
     can match.  Also numbers the embedded FDs the buckets are kept by. *)
  attr_fds : int list array; (* attr -> embedded FDs with attr in X *)
  strata : int array; (* cfd id -> dependency-graph stratum *)
  queue : (int * int) Heap.t;
  (* (cfd id, tid) keyed by plan cost, ties broken by (cfd id, tid).  The
     tie-break is load-bearing: it makes the pop order a pure function of
     the queue's contents, so a shard-partitioned run — whose queue holds
     only its own group's pairs — replays exactly the full-width run's
     per-shard pop subsequence.  A layout-dependent tie-break would let
     other groups' traffic through the shared heap reorder equal-cost
     pairs of one group, and greedy repair is order-sensitive on ties. *)
  enqueued : (int * int, float) Hashtbl.t; (* pair -> its queued priority *)
  findv : (int * int, int list Vkey.Table.t) Hashtbl.t; (* lazy FINDV indices *)
  class_weights : (int, (Value.t * float) list) Hashtbl.t;
  (* class root -> aggregate weight of members per distinct original value,
     sorted by value; built lazily from the member list and dropped on
     union.  Lets class costs and medoids be computed in O(distinct values)
     instead of O(members). *)
  mutable merges : int;
  mutable rhs_fixes : int;
  mutable lhs_fixes : int;
  mutable nulls_introduced : int;
  mutable instantiate_visits : int;
  (* class roots visited across all [instantiate] calls — the re-resolution
     churn the shard partition is meant to cut: a full-width run revisits
     every root each round, a per-shard run only its own columns' roots *)
  trail : Provenance.trail;
  (* Context for the provenance entries the next [with_change] records:
     the clause the resolution step is serving, its plan cost, and the
     step counter.  [None]/[0.] during instantiation. *)
  mutable ctx_clause : string option;
  mutable ctx_cost : float;
  mutable ctx_pass : int;
}

let tuple st tid = Relation.find_exn st.rel tid

let cellof st tid attr = Eqclass.cell st.eq ~tid ~attr

let eff st tid attr = Eqclass.effective st.eq (cellof st tid attr)

let eff_matches_lhs st cid tid =
  let lhs = st.lhs_of.(cid) and pats = st.lhs_pats_of.(cid) in
  let rec loop i =
    i >= Array.length lhs
    || (Pattern.matches (eff st tid lhs.(i)) pats.(i) && loop (i + 1))
  in
  loop 0

(* Offer a (clause, tuple) pair to the queue.  Fresh offers enter
   optimistically (near-zero priority, biased by the clause's dependency
   stratum): the pop loop verifies, computes the true plan cost and either
   applies the plan or re-queues the pair at that cost, so every live
   violation gets scored before anything more expensive is applied — a
   lazy, incremental PICKNEXT. *)
let offer st cid tid =
  let key = (cid, tid) in
  let optimistic = float_of_int st.strata.(cid) *. 1e-9 in
  match Hashtbl.find_opt st.enqueued key with
  | Some p when p <= optimistic -> ()
  | _ ->
    Hashtbl.replace st.enqueued key optimistic;
    Heap.add st.queue ~priority:optimistic key

(* Call [f] on the clauses mentioning [attr] that the tuple could
   currently match, given its effective values read through [eff_at]:
   once per mention, so a clause whose RHS also sits in its LHS is visited
   twice for that attribute. *)
let iter_touching st eff_at attr f =
  Clause_index.iter_candidates st.index eff_at (fun cid ->
      if Array.exists (Int.equal attr) st.lhs_of.(cid) then f cid;
      if Cfd.rhs st.sigma.(cid) = attr then f cid)

let mark_dirty st tid attr =
  iter_touching st (eff st tid) attr (fun cid -> offer st cid tid)

(* Buckets: group tuples by their effective X per embedded FD, maintained
   incrementally as targets change.  A tuple with a null in X matches no
   pattern row, so it is filed nowhere. *)

let bucket_remove st f tid =
  match Hashtbl.find_opt st.bucket_key.(f) tid with
  | None -> ()
  | Some key -> (
    Hashtbl.remove st.bucket_key.(f) tid;
    match Vkey.Table.find_opt st.buckets.(f) key with
    | Some set -> Hashtbl.remove set tid
    | None -> ())

let bucket_insert st f tid =
  let key = Clause_index.fd_key st.index f (eff st tid) in
  if not (Array.exists Value.is_null key) then begin
    Hashtbl.replace st.bucket_key.(f) tid key;
    let set =
      match Vkey.Table.find_opt st.buckets.(f) key with
      | Some set -> set
      | None ->
        let set = Hashtbl.create 4 in
        Vkey.Table.add st.buckets.(f) key set;
        set
    in
    Hashtbl.replace set tid ()
  end

(* The group of [tid] under wildcard clause [cid]: its bucket, provided the
   tuple currently matches the clause's pattern row. *)
let group_of st cid tid =
  let f = Clause_index.fd st.index cid in
  match Hashtbl.find_opt st.bucket_key.(f) tid with
  | Some key when eff_matches_lhs st cid tid ->
    Vkey.Table.find_opt st.buckets.(f) key
  | _ -> None

(* Run a mutation of the equivalence classes containing [cells], keeping
   buckets and dirty sets in sync.  Only members of classes whose
   {e effective value actually changes} are touched: when a one-cell class
   merges into a 200-member group whose value stands, only the one cell is
   reindexed — without this, absorbing a group costs O(|group|²). *)
let with_change st cells mutate =
  (* Distinct affected classes, with members and pre-mutation values. *)
  let classes = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let root = Eqclass.find st.eq c in
      if not (Hashtbl.mem classes root) then
        Hashtbl.add classes root
          (Eqclass.members st.eq root, Eqclass.effective st.eq root))
    cells;
  mutate ();
  let changed = Hashtbl.create 8 in
  let prov = ref [] in
  Hashtbl.iter
    (fun root (members, before) ->
      let after = Eqclass.effective st.eq root in
      if not (Value.equal before after) then
        List.iter
          (fun (tid, attr) ->
            Hashtbl.replace changed ((tid * st.arity) + attr) (tid, attr);
            prov := (tid, attr, before, after) :: !prov)
          members)
    classes;
  (* Every cell whose effective value changed gets a trail entry.  The
     entries of one mutation are sorted by (tid, attr) so the trail is a
     pure function of the decision sequence, not of hash-table
     iteration order. *)
  let schema = Relation.schema st.rel in
  List.iter
    (fun (tid, attr, old_value, new_value) ->
      Provenance.record st.trail
        {
          Provenance.tid;
          attr;
          attr_name = Schema.attribute schema attr;
          old_value;
          new_value;
          clause = st.ctx_clause;
          cost_delta = st.ctx_cost;
          pass = st.ctx_pass;
        })
    (List.sort
       (fun (t1, a1, _, _) (t2, a2, _, _) ->
         match compare t1 t2 with 0 -> compare a1 a2 | c -> c)
       !prov);
  let reindex = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (tid, attr) ->
      List.iter
        (fun f -> Hashtbl.replace reindex (f, tid) ())
        st.attr_fds.(attr))
    changed;
  (* The values already changed, but stored bucket keys record where each
     tuple was filed, so removal by the recorded key still works.  Sorted
     visit order: the re-offers this triggers land in the queue in an order
     that is a pure function of the decision sequence. *)
  let reindex =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) reindex [])
  in
  let changed =
    List.sort compare (Hashtbl.fold (fun _ ta acc -> ta :: acc) changed [])
  in
  List.iter (fun (f, tid) -> bucket_remove st f tid) reindex;
  List.iter (fun (f, tid) -> bucket_insert st f tid) reindex;
  List.iter (fun (tid, attr) -> mark_dirty st tid attr) changed

(* Aggregate weight of the class's members per distinct original value,
   sorted by value: the one order for float sums and candidate scans.
   Cached per root; weights accumulate in member order. *)
let class_weights st c =
  let root = Eqclass.find st.eq c in
  match Hashtbl.find_opt st.class_weights root with
  | Some pairs -> pairs
  | None ->
    let table = Hashtbl.create 8 in
    List.iter
      (fun (tid, attr) ->
        let t = tuple st tid in
        let v = Tuple.get t attr in
        if not (Value.is_null v) then begin
          let w = Tuple.weight t attr in
          match Hashtbl.find_opt table v with
          | Some acc -> Hashtbl.replace table v (acc +. w)
          | None -> Hashtbl.add table v w
        end)
      (Eqclass.members st.eq root);
    let pairs =
      Hashtbl.fold (fun v w acc -> (v, w) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> Value.compare a b)
    in
    Hashtbl.add st.class_weights root pairs;
    pairs

(* sum_u W_u * sim(u, v) over a class's weight pairs *)
let weighted_cost pairs v =
  List.fold_left
    (fun acc (u, w_u) -> acc +. (w_u *. Cost.similarity u v))
    0. pairs

(* Cost(t, B, v): weighted cost of moving every member of the class to [v],
   measured from the members' original values (Section 4.2). *)
let class_cost st c v = weighted_cost (class_weights st c) v

(* The weighted-medoid value of a class: the member original value that
   minimises the class's change cost — what instantiation will pick; the
   smallest such value on a tie.  [None] when every member was originally
   null. *)
let best_constant st root =
  let pairs = class_weights st root in
  let best = ref None in
  List.iter
    (fun (v, _) ->
      let c = weighted_cost pairs v in
      match !best with
      | Some (_, bc) when bc <= c -> ()
      | _ -> best := Some (v, c))
    pairs;
  Option.map fst !best

(* FINDV's relation-backed value source: tuples agreeing with [t] on
   X ∪ {A} \ {B}.  The index is built once per (clause, LHS position) from
   original values; candidates are re-validated against the current state
   by the caller, so staleness only costs candidate quality, not
   correctness. *)
let findv_positions st cid lhs_pos =
  let lhs = st.lhs_of.(cid) in
  let keep = ref [] in
  Array.iteri (fun i pos -> if i <> lhs_pos then keep := pos :: !keep) lhs;
  Array.of_list (List.rev (Cfd.rhs st.sigma.(cid) :: !keep))

let findv_table st cid lhs_pos =
  match Hashtbl.find_opt st.findv (cid, lhs_pos) with
  | Some table -> table
  | None ->
    let positions = findv_positions st cid lhs_pos in
    let table = Vkey.Table.create 256 in
    Relation.iter
      (fun t ->
        let key = Array.map (Tuple.get t) positions in
        let prev =
          match Vkey.Table.find_opt table key with Some l -> l | None -> []
        in
        if List.length prev < 32 then
          Vkey.Table.replace table key (Tuple.tid t :: prev))
      st.rel;
    Hashtbl.add st.findv (cid, lhs_pos) table;
    table

let findv_candidates st cid lhs_pos tid =
  let positions = findv_positions st cid lhs_pos in
  let key = Array.map (eff st tid) positions in
  let table = findv_table st cid lhs_pos in
  let attr = st.lhs_of.(cid).(lhs_pos) in
  let current = eff st tid attr in
  match Vkey.Table.find_opt table key with
  | None -> []
  | Some tids ->
    List.fold_left
      (fun acc tid' ->
        if tid' = tid then acc
        else
          let v = eff st tid' attr in
          if
            Value.is_null v || Value.equal v current
            || List.exists (Value.equal v) acc
          then acc
          else v :: acc)
      [] tids

(* Whether [tid]'s effective value at [rhs] is non-null and differs from
   [v]: the two tuples conflict on a wildcard clause they share a group of. *)
let rhs_conflicts st rhs v tid =
  let v' = eff st tid rhs in
  (not (Value.is_null v')) && not (Value.equal v v')

(* Estimate how many clause violations tuple [tid] would incur if the
   effective value of [attr] became [v] (everything else unchanged).  Used
   to score candidate fixes: a fix that is locally cheap but knocks the
   tuple out of line with other clauses (e.g. relocating a tuple to the
   city its corrupted area code points at, against zip and tax-rate
   evidence) scores worse than one consistent with the rest of the tuple.
   Only clauses touching [attr] can change status, so only they are
   examined. *)
let vio_estimate st tid attr v =
  let eff' tid' a = if tid' = tid && a = attr then v else eff st tid' a in
  let count = ref 0 in
  iter_touching st (eff' tid) attr (fun cid ->
      let cfd = st.sigma.(cid) in
      let lhs = st.lhs_of.(cid) and pats = st.lhs_pats_of.(cid) in
      let lhs_match =
        let rec loop i =
          i >= Array.length lhs
          || (Pattern.matches (eff' tid lhs.(i)) pats.(i) && loop (i + 1))
        in
        loop 0
      in
      if lhs_match then begin
        let rv = eff' tid (Cfd.rhs cfd) in
        match Cfd.rhs_pattern cfd with
        | Pattern.Const a ->
          if (not (Value.is_null rv)) && not (Value.equal rv a) then incr count
        | Pattern.Wild ->
          if not (Value.is_null rv) then begin
            let f = Clause_index.fd st.index cid in
            let key = Clause_index.fd_key st.index f (eff' tid) in
            match Vkey.Table.find_opt st.buckets.(f) key with
            | None -> ()
            | Some set ->
              let conflicting =
                try
                  Hashtbl.iter
                    (fun tid' () ->
                      if tid' <> tid && rhs_conflicts st (Cfd.rhs cfd) rv tid'
                      then raise Exit)
                    set;
                  false
                with Exit -> true
              in
              if conflicting then incr count
          end
      end);
  !count

(* costfix-style score: weighted change cost, inflated by the violations
   the tuple would still incur after the change (plus a small absolute
   penalty so zero-weight changes still prefer violation-free values) and
   discounted by the violations the change resolves.  The discount is what
   makes a fix that reconciles several clauses at once (restoring a
   swapped state code repairs the zip, tax-rate and area-code evidence
   together) beat a cheap fix that silences a single clause by pushing the
   tuple further from the rest of its own evidence. *)
let plan_score st tid attr v base_cost =
  let before = vio_estimate st tid attr (eff st tid attr) in
  let after = vio_estimate st tid attr v in
  let removed = max 0 (before - after) in
  ((base_cost *. float_of_int (1 + after)) +. (0.05 *. float_of_int after))
  /. float_of_int (1 + removed)

(* Cases 1.2 / 2.2: the RHS target is a committed constant, so resolve by
   changing an LHS attribute of [tid].  [resolves i v] decides whether
   setting the LHS attribute at position [i] to [v] actually breaks the
   violation (pattern mismatch, or key inequality in the pair case). *)
let lhs_fix_plan st cid tid ~resolves =
  let lhs = st.lhs_of.(cid) in
  let best = ref None in
  let consider cost action =
    match !best with
    | Some { cost = c; _ } when c <= cost -> ()
    | _ -> best := Some { cost; action }
  in
  Array.iteri
    (fun i attr ->
      let c = cellof st tid attr in
      let null_plan () =
        consider
          (plan_score st tid attr Value.null (class_cost st c Value.null))
          (Set_lhs { cell = c; target = Eqclass.Null })
      in
      match Eqclass.target st.eq c with
      | Eqclass.Null -> ()
      | Eqclass.Const _ -> null_plan ()
      | Eqclass.Unfixed -> (
        let candidates =
          List.filter (resolves i) (findv_candidates st cid i tid)
        in
        match candidates with
        | [] -> null_plan ()
        | vs ->
          List.iter
            (fun v ->
              consider
                (plan_score st tid attr v (class_cost st c v))
                (Set_lhs { cell = c; target = Eqclass.Const v }))
            vs))
    lhs;
  !best

(* Verify whether (clause, tuple) still violates under the current targets;
   if so, produce the cheapest local fix (the CFD-RESOLVE case analysis). *)
let verify_and_plan st cid tid =
  if not (Relation.mem st.rel tid) then None
  else begin
    let cfd = st.sigma.(cid) in
    let rhs = Cfd.rhs cfd in
    match Cfd.rhs_pattern cfd with
    | Pattern.Const a ->
      if not (eff_matches_lhs st cid tid) then None
      else begin
        let c = cellof st tid rhs in
        match Eqclass.target st.eq c with
        | Eqclass.Null -> None
        | Eqclass.Unfixed ->
          if Value.equal (Eqclass.effective st.eq c) a then None
          else
            (* case 1.1: the target is free, commit it to the constant *)
            Some
              {
                cost = plan_score st tid rhs a (class_cost st c a);
                action = Set_rhs { cell = c; value = a };
              }
        | Eqclass.Const b ->
          if Value.equal b a then None
          else
            (* case 1.2: committed elsewhere; break the LHS match *)
            let pats = st.lhs_pats_of.(cid) in
            let resolves i v =
              match pats.(i) with
              | Pattern.Const p -> not (Value.equal v p)
              | Pattern.Wild -> false
            in
            lhs_fix_plan st cid tid ~resolves
      end
    | Pattern.Wild -> (
      match group_of st cid tid with
      | None -> None (* effective LHS no longer matches the pattern *)
      | Some set -> (
        let v = eff st tid rhs in
        if Value.is_null v then None
        else
          (* smallest conflicting tid: a pure function of the group's
             contents, replayable after a resume *)
          let partner =
            Hashtbl.fold
              (fun tid' () best ->
                match best with
                | Some b when b <= tid' -> best
                | _ ->
                  if tid' <> tid && rhs_conflicts st rhs v tid' then Some tid'
                  else best)
              set None
          in
          match partner with
          | None -> None
          | Some tid' -> (
            let c1 = cellof st tid rhs and c2 = cellof st tid' rhs in
            (* Case 2.2's resolution: break the key equality (or pattern
               match) of one of the two tuples on the LHS. *)
            let lhs_alternative () =
              let pats = st.lhs_pats_of.(cid) in
              let lhs = st.lhs_of.(cid) in
              let plan_for this other =
                let resolves i v =
                  (match pats.(i) with
                  | Pattern.Const p -> not (Value.equal v p)
                  | Pattern.Wild -> false)
                  || not (Value.equal v (eff st other lhs.(i)))
                in
                lhs_fix_plan st cid this ~resolves
              in
              match plan_for tid tid', plan_for tid' tid with
              | Some p, Some p' -> Some (if p.cost <= p'.cost then p else p')
              | (Some _ as p), None | None, (Some _ as p) -> p
              | None, None -> None
            in
            match Eqclass.target st.eq c1, Eqclass.target st.eq c2 with
            | Eqclass.Null, _ | _, Eqclass.Null -> None (* case 2.3 *)
            | Eqclass.Unfixed, Eqclass.Unfixed ->
              (* case 2.1: merge; estimate the cost of moving the smaller
                 class onto the larger one's value (the exact post-merge
                 medoid is recomputed when the plan is applied) *)
              let big, small, small_tid =
                if Eqclass.size st.eq c1 >= Eqclass.size st.eq c2 then
                  (c1, c2, tid')
                else (c2, c1, tid)
              in
              let keep = Eqclass.effective st.eq big in
              Some
                {
                  cost =
                    plan_score st small_tid rhs keep (class_cost st small keep);
                  action = Merge { cell1 = c1; cell2 = c2 };
                }
            | Eqclass.Const cst, Eqclass.Unfixed ->
              (* One side already committed: merging drags the free side
                 onto the constant, which is catastrophic when the free
                 side is a large innocent class and the committed tuple is
                 the one whose LHS has drifted — so an LHS fix competes. *)
              let merge =
                {
                  cost = plan_score st tid' rhs cst (class_cost st c2 cst);
                  action = Merge { cell1 = c1; cell2 = c2 };
                }
              in
              Some
                (match lhs_alternative () with
                | Some p when p.cost < merge.cost -> p
                | _ -> merge)
            | Eqclass.Unfixed, Eqclass.Const cst ->
              let merge =
                {
                  cost = plan_score st tid rhs cst (class_cost st c1 cst);
                  action = Merge { cell1 = c1; cell2 = c2 };
                }
              in
              Some
                (match lhs_alternative () with
                | Some p when p.cost < merge.cost -> p
                | _ -> merge)
            | Eqclass.Const _, Eqclass.Const _ ->
              (* case 2.2: both committed; only an LHS change can help *)
              lhs_alternative ())))
  end

(* PICKNEXT as a lazy best-first loop over the queue.  Popping a pair
   re-verifies it against the current targets: resolved pairs are dropped,
   pairs whose true plan cost exceeds their queued priority are re-queued
   at the true cost, and a pair popped at (or below) its true cost is the
   globally cheapest live fix — exactly the greedy choice of Fig. 5, at
   amortised O(log q) per step instead of a full rescan. *)
let pick_next st =
  let rec pop () =
    match Heap.pop_min st.queue with
    | None -> None
    | Some (priority, ((cid, tid) as key)) -> (
      match Hashtbl.find_opt st.enqueued key with
      | Some p when p < priority -. 1e-12 -> pop () (* a fresher copy exists *)
      | _ -> (
        Hashtbl.remove st.enqueued key;
        match verify_and_plan st cid tid with
        | None -> pop ()
        | Some plan ->
          if plan.cost <= priority +. 1e-9 then Some (cid, tid, plan)
          else begin
            Hashtbl.replace st.enqueued key plan.cost;
            Heap.add st.queue ~priority:plan.cost key;
            pop ()
          end))
  in
  pop ()

let apply st = function
  | Set_rhs { cell; value } ->
    with_change st [ cell ] (fun () ->
        Eqclass.set_target st.eq cell (Eqclass.Const value));
    st.rhs_fixes <- st.rhs_fixes + 1
  | Merge { cell1; cell2 } ->
    Trace.span ~cat:"batch"
      ~args:(fun () ->
        [
          ("cell1", Dq_obs.Json.Int cell1);
          ("cell2", Dq_obs.Json.Int cell2);
        ])
      "batch.merge"
    @@ fun () ->
    with_change st [ cell1; cell2 ] (fun () ->
        (* Drop the cached weight lists and let [class_weights] rebuild
           from the merged member list: per-value weight sums are then
           always accumulated in member order — the one order a resumed
           run reproduces exactly. *)
        let r1 = Eqclass.find st.eq cell1 and r2 = Eqclass.find st.eq cell2 in
        let root = Eqclass.union st.eq cell1 cell2 in
        Hashtbl.remove st.class_weights r1;
        Hashtbl.remove st.class_weights r2;
        Hashtbl.remove st.class_weights root;
        (* Keep the representative aligned with the value the merged class
           is headed for, so effective-value checks (and the pattern rows
           they trigger) see the likely outcome rather than whichever
           side's representative survived the union. *)
        if Eqclass.target st.eq root = Eqclass.Unfixed then
          match best_constant st root with
          | Some v -> Eqclass.set_repr st.eq root v
          | None -> ());
    st.merges <- st.merges + 1;
    Metrics.incr m_merges
  | Set_lhs { cell; target } ->
    with_change st [ cell ] (fun () -> Eqclass.set_target st.eq cell target);
    st.lhs_fixes <- st.lhs_fixes + 1;
    if target = Eqclass.Null then
      st.nulls_introduced <- st.nulls_introduced + 1

(* Lines 10–13 of Fig. 4: give every still-unfixed class its least-cost
   constant.  Classes whose best constant is their own representative keep
   their effective value, so they need no bucket or dirty maintenance. *)
let instantiate st =
  let changed = ref false in
  (* Collect the roots first (targets never change which cells are roots,
     so the snapshot is exact), then sort them: [iter_roots] order reflects
     registration history. *)
  let roots = ref [] in
  Eqclass.iter_roots (fun root -> roots := root :: !roots) st.eq;
  let roots = List.sort compare !roots in
  st.instantiate_visits <- st.instantiate_visits + List.length roots;
  List.iter
    (fun root ->
      if Eqclass.target st.eq root = Eqclass.Unfixed then
        match best_constant st root with
        | None ->
          (* every member was originally null: the class is uncertain *)
          let repr_null = Value.is_null (Eqclass.repr st.eq root) in
          if repr_null then Eqclass.set_target st.eq root Eqclass.Null
          else begin
            with_change st [ root ] (fun () ->
                Eqclass.set_target st.eq root Eqclass.Null);
            changed := true
          end
        | Some best ->
          if Value.equal best (Eqclass.repr st.eq root) then
            Eqclass.set_target st.eq root (Eqclass.Const best)
          else begin
            with_change st [ root ] (fun () ->
                Eqclass.set_target st.eq root (Eqclass.Const best));
            changed := true
          end)
    roots;
  !changed

let init_state ?eq rel sigma ~use_dependency_graph =
  let schema = Relation.schema rel in
  let arity = Schema.arity schema in
  let n = Array.length sigma in
  let lhs_of = Array.map Cfd.lhs sigma in
  let lhs_pats_of = Array.map Cfd.lhs_patterns sigma in
  let index = Clause_index.compile sigma in
  let n_fds = Clause_index.fd_count index in
  let attr_fds = Array.make arity [] in
  Array.iteri
    (fun cid lhs ->
      let f = Clause_index.fd index cid in
      if f >= 0 then
        Array.iter
          (fun attr ->
            if not (List.mem f attr_fds.(attr)) then
              attr_fds.(attr) <- f :: attr_fds.(attr))
          lhs)
    lhs_of;
  let strata =
    if use_dependency_graph then Depgraph.strata schema sigma
    else Array.make n 0
  in
  let eq =
    match eq with
    | Some eq -> eq (* restored from a checkpoint *)
    | None ->
      Eqclass.create ~arity ~original:(fun ~tid ~attr ->
          Tuple.get (Relation.find_exn rel tid) attr)
  in
  let st =
    {
      rel;
      sigma;
      lhs_of;
      lhs_pats_of;
      eq;
      arity;
      buckets = Array.init n_fds (fun _ -> Vkey.Table.create 256);
      bucket_key = Array.init n_fds (fun _ -> Hashtbl.create 256);
      index;
      attr_fds;
      strata;
      queue = Heap.create ~tie:compare ();
      enqueued = Hashtbl.create 1024;
      findv = Hashtbl.create 16;
      class_weights = Hashtbl.create 1024;
      merges = 0;
      rhs_fixes = 0;
      lhs_fixes = 0;
      nulls_introduced = 0;
      instantiate_visits = 0;
      trail = Provenance.create ();
      ctx_clause = None;
      ctx_cost = 0.;
      ctx_pass = 0;
    }
  in
  (* Register every cell (line 1 of Fig. 4) and build the buckets.  On a
     restored [eq] the registration no-ops (every cell is already a class
     member) and the buckets rebuild from the checkpoint's effective
     values. *)
  Relation.iter
    (fun t ->
      let tid = Tuple.tid t in
      for attr = 0 to arity - 1 do
        ignore (cellof st tid attr)
      done;
      for f = 0 to n_fds - 1 do
        bucket_insert st f tid
      done)
    rel;
  st

(* Rebuild every embedded FD's buckets from the current effective values —
   the ground truth the incremental maintenance must agree with. *)
let rebuild_buckets st =
  Array.iteri
    (fun f buckets ->
      Vkey.Table.reset buckets;
      Hashtbl.reset st.bucket_key.(f);
      Relation.iter (fun t -> bucket_insert st f (Tuple.tid t)) st.rel)
    st.buckets

(* Call [k cid] for every wildcard clause of embedded FD [f] that one of
   its groups matches: every member shares X, so any one of them decides. *)
let iter_group_rows st f set k =
  match Hashtbl.to_seq_keys set () with
  | Seq.Nil -> ()
  | Seq.Cons (member, _) ->
    Clause_index.iter_fd_rows st.index f (eff st member) (fun cid ->
        if eff_matches_lhs st cid member then k cid)

(* Whether a group holds two distinct non-null effective values at [rhs]. *)
let conflicted st rhs set =
  let seen = ref None in
  try
    Hashtbl.iter
      (fun tid () ->
        let v = eff st tid rhs in
        if not (Value.is_null v) then
          match !seen with
          | None -> seen := Some v
          | Some u -> if not (Value.equal u v) then raise Exit)
      set;
    false
  with Exit -> true

(* Wildcard clauses: offer every (clause, member) pair of any group holding
   two distinct effective RHS values, in ascending (clause, tid) order —
   bucket-table iteration order is a function of insertion history that a
   resumed run cannot reproduce. *)
let offer_wild_violations st ~offer =
  let pending = ref [] in
  Array.iteri
    (fun f buckets ->
      let rhs = Clause_index.fd_rhs st.index f in
      Vkey.Table.iter
        (fun _key set ->
          if conflicted st rhs set then
            iter_group_rows st f set (fun cid ->
                Hashtbl.iter
                  (fun tid () -> pending := (cid, tid) :: !pending)
                  set))
        buckets)
    st.buckets;
  List.iter (fun (cid, tid) -> offer cid tid) (List.sort_uniq compare !pending)

(* The DATAQUAL_PARANOID invariant: every live wildcard conflict has at
   least one of its two (clause, tuple) pairs queued. *)
let check_all_queued st ~step =
  Array.iteri
    (fun f buckets ->
      let rhs = Clause_index.fd_rhs st.index f in
      Vkey.Table.iter
        (fun _key set ->
          iter_group_rows st f set (fun cid ->
              Hashtbl.iter
                (fun tid () ->
                  let v = eff st tid rhs in
                  if not (Value.is_null v) then
                    Hashtbl.iter
                      (fun tid' () ->
                        if
                          tid' <> tid
                          && rhs_conflicts st rhs v tid'
                          && (not (Hashtbl.mem st.enqueued (cid, tid)))
                          && not (Hashtbl.mem st.enqueued (cid, tid'))
                        then
                          Log.err (fun m ->
                              m
                                "step %d: live pair (%s, %d~%d) not queued \
                                 after %a"
                                step
                                (Cfd.name st.sigma.(cid))
                                tid tid' Cfd.pp st.sigma.(cid)))
                      set)
                set))
        buckets)
    st.buckets

(* Offer every live violation under the current effective values: constant
   clauses by direct checks, wildcard clauses from conflicting buckets.
   Used to re-verify at quiescence.  Returns how many (clause, tuple) pairs
   were offered. *)
let offer_all_violations st =
  let offered = ref 0 in
  let offer st cid tid =
    incr offered;
    offer st cid tid
  in
  (* Constant clauses: probe the anchored clause index with each tuple's
     own effective values rather than scanning every pattern row per
     tuple. *)
  let check tid cid =
    let cfd = st.sigma.(cid) in
    match Cfd.rhs_pattern cfd with
    | Pattern.Wild -> ()
    | Pattern.Const a ->
      if eff_matches_lhs st cid tid then
        let v = eff st tid (Cfd.rhs cfd) in
        if (not (Value.is_null v)) && not (Value.equal v a) then
          offer st cid tid
  in
  Relation.iter
    (fun t ->
      let tid = Tuple.tid t in
      Clause_index.iter_candidates st.index (eff st tid) (check tid))
    st.rel;
  offer_wild_violations st ~offer:(fun cid tid -> offer st cid tid);
  !offered

(* Line 4 of Fig. 4: the initial Dirty_Tuples scan.  At this point every
   equivalence class is a fresh singleton whose effective value {e is} the
   tuple's original value, so the constant-clause pass can read tuples
   directly — pure, domain-safe — in parallel chunks over the tuple
   snapshot.  The offers are then replayed in relation order, so the
   queue's contents (and hence the whole repair) are byte-identical to the
   sequential scan at any job count.  Wildcard conflicts come from the
   just-built buckets, sequentially (bucket tables are not domain-safe). *)
let initial_offer ?pool ?deadline st =
  let tuples = Relation.tuples st.rel in
  let n = Array.length tuples in
  let chunk lo hi =
    let out = ref [] in
    for i = lo to hi - 1 do
      let t = tuples.(i) in
      let tid = Tuple.tid t in
      let check cid =
        let cfd = st.sigma.(cid) in
        match Cfd.rhs_pattern cfd with
        | Pattern.Wild -> ()
        | Pattern.Const a ->
          let lhs = st.lhs_of.(cid) and pats = st.lhs_pats_of.(cid) in
          let rec matches i =
            i >= Array.length lhs
            || Pattern.matches (Tuple.get t lhs.(i)) pats.(i)
               && matches (i + 1)
          in
          if matches 0 then
            let v = Tuple.get t (Cfd.rhs cfd) in
            if (not (Value.is_null v)) && not (Value.equal v a) then
              out := (cid, tid) :: !out
      in
      Clause_index.iter_candidates st.index (Tuple.get t) check
    done;
    List.rev !out
  in
  List.iter
    (List.iter (fun (cid, tid) -> offer st cid tid))
    (Pool.map_chunks ?deadline ~label:"initial_scan.chunk" pool ~n chunk);
  offer_wild_violations st ~offer:(fun cid tid -> offer st cid tid)

type checkpoint_spec = { path : string; every : int }

let repair_single ?pool ?(use_dependency_graph = true)
    ?(deadline = Deadline.never) ?checkpoint ?resume db sigma =
  Trace.span ~cat:"engine"
    ~args:(fun () ->
      [
        ("tuples", Dq_obs.Json.Int (Relation.cardinality db));
        ("clauses", Dq_obs.Json.Int (Array.length sigma));
      ])
    "batch_repair"
  @@ fun () ->
  let started = Unix.gettimeofday () in
  let phases = ref [] in
  (* Expensive invariant check after every step, for debugging the
     incremental dirty propagation; an empty value counts as unset. *)
  let paranoid =
    match Sys.getenv_opt "DATAQUAL_PARANOID" with
    | None | Some "" -> false
    | Some _ -> true
  in
  let invalid =
    match checkpoint with
    | Some { every; _ } when every < 1 ->
      Some (Dq_error.Invalid_config "checkpoint interval must be at least 1")
    | _ -> None
  in
  match invalid with
  | Some e -> Error e
  | None -> (
    (* The fingerprint hashes every cell: only computed when a checkpoint
       will carry it or a resume must match it. *)
    let fp =
      if checkpoint = None && resume = None then 0
      else Checkpoint.fingerprint db sigma ~use_dependency_graph
    in
    match resume with
    | Some cp when cp.Checkpoint.kind <> Checkpoint.batch_kind ->
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf
              "checkpoint kind %S was written by a different engine \
               (this engine reads %S)"
              cp.Checkpoint.kind Checkpoint.batch_kind))
    | Some cp when cp.Checkpoint.fingerprint <> fp ->
      Error
        (Dq_error.Invalid_input
           "checkpoint does not match this input (data, ruleset or \
            configuration changed)")
    | _ -> (
      let rel = Relation.copy db in
      let eq =
        Option.map
          (fun cp ->
            Eqclass.restore
              ~original:(fun ~tid ~attr ->
                Tuple.get (Relation.find_exn rel tid) attr)
              cp.Checkpoint.eq)
          resume
      in
      let st =
        timed phases "init" m_t_init (fun () ->
            init_state ?eq rel sigma ~use_dependency_graph)
      in
      let steps = ref 0 in
      let rescans = ref 0 in
      let pass_no = ref 0 in
      (match resume with
      | None -> ()
      | Some cp ->
        steps := cp.Checkpoint.counters.steps;
        rescans := cp.Checkpoint.counters.rescans;
        pass_no := cp.Checkpoint.counters.pass;
        st.merges <- cp.Checkpoint.counters.merges;
        st.rhs_fixes <- cp.Checkpoint.counters.rhs_fixes;
        st.lhs_fixes <- cp.Checkpoint.counters.lhs_fixes;
        st.nulls_introduced <- cp.Checkpoint.counters.nulls_introduced;
        List.iter (Provenance.record st.trail) cp.Checkpoint.trail);
      let budget = 20 * (Eqclass.n_cells st.eq + 1) in
      let degraded = ref None in
      let progress_fraction () =
        let s = float_of_int !steps
        and q = float_of_int (Heap.length st.queue) in
        if s = 0. && q = 0. then 1. else s /. Float.max 1. (s +. q)
      in
      let write_checkpoint () =
        match checkpoint with
        | Some { path; every } when !pass_no mod every = 0 ->
          Checkpoint.save path
            {
              Checkpoint.kind = Checkpoint.batch_kind;
              fingerprint = fp;
              use_dependency_graph;
              counters =
                {
                  Checkpoint.pass = !pass_no;
                  steps = !steps;
                  rescans = !rescans;
                  merges = st.merges;
                  rhs_fixes = st.rhs_fixes;
                  lhs_fixes = st.lhs_fixes;
                  nulls_introduced = st.nulls_introduced;
                };
              eq = Eqclass.snapshot st.eq;
              trail = Provenance.entries st.trail;
            }
        | _ -> ()
      in
      (* One resolution pass: pop-and-apply until the queue verifies clean
         (or the step budget trips).  Instantiation and quiescence rescans
         separate passes, so each pass is one drain of the violation
         queue.  A wall-clock deadline is polled every 1024 steps —
         pass-count deadlines are only ever checked at boundaries, so they
         stay exactly reproducible. *)
      let rec drain () =
        if !steps > budget then
          Error (Dq_error.Internal "Batch_repair.repair: step budget exceeded")
        else if !steps land 1023 = 0 && Deadline.wall_expired deadline then
          Ok `Cut
        else begin
      match pick_next st with
      | Some (cid, tid, plan) ->
        Log.debug (fun m ->
            let describe = function
              | Set_rhs { cell; value } ->
                let ctid, cattr = Eqclass.tid_attr st.eq cell in
                Format.asprintf "set_rhs (%d,%s) := %a" ctid
                  (Schema.attribute (Relation.schema st.rel) cattr)
                  Value.pp value
              | Merge { cell1; cell2 } ->
                let t1, a1 = Eqclass.tid_attr st.eq cell1 in
                let t2, a2 = Eqclass.tid_attr st.eq cell2 in
                Format.asprintf "merge (%d,%d) ~ (%d,%d)" t1 a1 t2 a2
              | Set_lhs { cell; target } ->
                let ctid, cattr = Eqclass.tid_attr st.eq cell in
                Format.asprintf "set_lhs (%d,%s) := %a" ctid
                  (Schema.attribute (Relation.schema st.rel) cattr)
                  Eqclass.pp_target target
            in
            m "step %d: %s tid=%d cost=%.4f %s" !steps
              (Cfd.name st.sigma.(cid))
              tid plan.cost (describe plan.action));
        st.ctx_clause <- Some (Cfd.name st.sigma.(cid));
        st.ctx_cost <- plan.cost;
        st.ctx_pass <- !steps;
        apply st plan.action;
        (* A wildcard-clause plan resolves the conflict with one partner;
           the tuple may still conflict with others in its group, so the
           pair goes straight back in the queue until it verifies clean. *)
        offer st cid tid;
        incr steps;
        Metrics.incr m_steps;
        Progress.emit (fun () ->
            Printf.sprintf
              "batch_repair: pass %d | step %d | %d unresolved | %.0f steps/s"
              !pass_no !steps (Heap.length st.queue)
              (float_of_int !steps
              /. Float.max 1e-9 (Unix.gettimeofday () -. started)));
      if paranoid then check_all_queued st ~step:!steps;
        drain ()
      | None -> Ok `Drained
    end
      in
      (* A deadline cut: record why and how far the run got, then
         instantiate once so the written-back targets are complete — the
         anytime result.  A cut before any work on a fresh run has nothing
         usable to return: that is exit code 4's case. *)
      let cut reason =
        if !steps = 0 && resume = None then Error Dq_error.Deadline_exceeded
        else begin
          degraded := Some { Report.reason; progress = progress_fraction () };
          st.ctx_clause <- None;
          st.ctx_cost <- 0.;
          st.ctx_pass <- !steps;
          ignore
            (Trace.span ~cat:"batch" "batch.instantiate" (fun () ->
                 instantiate st));
          Ok ()
        end
      in
      let rec drive () =
        incr pass_no;
        let drained =
          Trace.span ~cat:"batch"
            ~args:(fun () ->
              [
                ("pass", Dq_obs.Json.Int !pass_no);
                ("queued", Dq_obs.Json.Int (Heap.length st.queue));
              ])
            "batch.pass" drain
        in
        match drained with
        | Error _ as e -> e
        | Ok `Cut -> cut "deadline expired mid-pass"
        | Ok `Drained -> boundary ()
      (* The pass boundary: the queue has verified clean, so the class
         structure is a consistent cut — the one place a checkpoint can be
         taken and a deadline can stop the run deterministically. *)
      and boundary () =
        st.ctx_clause <- None;
        st.ctx_cost <- 0.;
        st.ctx_pass <- !steps;
        (* Checkpoint first, fault site second: a crash injected at
           ["repair.pass"] (or a kill -9 during its delay action) always
           finds the snapshot of this very boundary already on disk —
           the window the kill-and-resume tests exercise. *)
        write_checkpoint ();
        Fault.hit "repair.pass";
        Deadline.tick deadline;
        if Deadline.expired deadline then
          cut "deadline expired at a pass boundary"
        else if
          Trace.span ~cat:"batch" "batch.instantiate" (fun () ->
              instantiate st)
        then drive ()
        else begin
          (* Quiescent: cross-check against a full rebuild and rescan.
             The incremental dirty propagation is designed to be complete,
             but a missed pair here would silently break Theorem 4.2's
             guarantee, so trust nothing and re-verify. *)
          let missed =
            Trace.span ~cat:"batch" "batch.rescan" (fun () ->
                rebuild_buckets st;
                offer_all_violations st)
          in
          if missed > 0 then begin
            incr rescans;
            Metrics.incr m_rescans;
            if !rescans > 50 then
              Error
                (Dq_error.Internal
                   "Batch_repair.repair: rescans not converging")
            else begin
              Log.debug (fun m ->
                  m "quiescence rescan re-offered %d violation pairs" missed);
              drive ()
            end
          end
          else Ok ()
        end
      in
      let entry =
        match resume with
        | Some _ ->
          (* The checkpoint was taken at a boundary with an empty queue,
             after the initial scan's offers had all been consumed: skip
             the scan and re-enter right at the boundary. *)
          Ok `Resume
        | None -> (
          match
            timed phases "initial_scan" m_t_scan (fun () ->
                initial_offer ?pool ~deadline st)
          with
          | () -> Ok `Fresh
          | exception Deadline.Expired -> Error Dq_error.Deadline_exceeded)
      in
      match entry with
      | Error _ as e -> e
      | Ok entry -> (
        let run () =
          match entry with `Resume -> boundary () | `Fresh -> drive ()
        in
        match timed phases "resolve" m_t_resolve run with
        | Error _ as e -> e
        | Ok () ->
          (* Write the target values back into the working copy (lines
             14-15). *)
          let cells_changed = ref 0 in
          timed phases "write_back" m_t_write (fun () ->
              let tuples = Relation.tuples rel in
              Array.iter
                (fun t ->
                  let tid = Tuple.tid t in
                  for attr = 0 to st.arity - 1 do
                    let v = Eqclass.effective st.eq (cellof st tid attr) in
                    if not (Value.equal v (Tuple.get t attr)) then begin
                      Relation.set_value rel t attr v;
                      incr cells_changed
                    end
                  done)
                tuples);
          let stats =
            {
              steps = !steps;
              merges = st.merges;
              rhs_fixes = st.rhs_fixes;
              lhs_fixes = st.lhs_fixes;
              nulls_introduced = st.nulls_introduced;
              cells_changed = !cells_changed;
              instantiate_visits = st.instantiate_visits;
              runtime = Unix.gettimeofday () -. started;
            }
          in
          let report =
            Report.make ~engine:"batch_repair"
              ~summary:
                [
                  ("steps", Dq_obs.Json.Int stats.steps);
                  ("merges", Dq_obs.Json.Int stats.merges);
                  ("rhs_fixes", Dq_obs.Json.Int stats.rhs_fixes);
                  ("lhs_fixes", Dq_obs.Json.Int stats.lhs_fixes);
                  ("nulls_introduced", Dq_obs.Json.Int stats.nulls_introduced);
                  ("cells_changed", Dq_obs.Json.Int stats.cells_changed);
                ]
              ~phases:!phases
              ~provenance:(Provenance.entries st.trail)
              ?degraded:!degraded ()
          in
          Ok ((rel, stats), report))))

(* ---- shard-partitioned repair ----------------------------------------- *)

(* Repair each clause group of [partition] independently over the
   projection of [db] onto the attributes the group touches.  Groups with
   disjoint attribute sets cannot interact through any cell — no clause of
   one group reads or writes an attribute of another — so the per-group
   repairs compose: writing each group's changed cells back into a copy of
   [db] yields the same relation a full-width run would produce, while
   every group's queue, buckets and instantiation rounds only ever visit
   its own columns. *)
let repair_partitioned ?pool ~use_dependency_graph ~deadline db sigma
    partition n_shards =
  Trace.span ~cat:"engine"
    ~args:(fun () ->
      [
        ("tuples", Dq_obs.Json.Int (Relation.cardinality db));
        ("clauses", Dq_obs.Json.Int (Array.length sigma));
        ("shards", Dq_obs.Json.Int n_shards);
      ])
    "batch_repair.partitioned"
  @@ fun () ->
  let started = Unix.gettimeofday () in
  let schema = Relation.schema db in
  let arity = Schema.arity schema in
  let groups = Array.make n_shards [] in
  for i = Array.length sigma - 1 downto 0 do
    groups.(partition.(i)) <- i :: groups.(partition.(i))
  done;
  (* Shard ids with no member clause contribute nothing; drop them. *)
  let groups =
    Array.of_list (List.filter (fun l -> l <> []) (Array.to_list groups))
  in
  let n_groups = Array.length groups in
  let shards =
    Array.map
      (fun cids ->
        let mark = Array.make arity false in
        List.iter
          (fun cid ->
            List.iter (fun a -> mark.(a) <- true) (Cfd.attrs sigma.(cid)))
          cids;
        let positions = ref [] in
        for a = arity - 1 downto 0 do
          if mark.(a) then positions := a :: !positions
        done;
        let positions = Array.of_list !positions in
        let proj_schema =
          Schema.make ~name:(Schema.name schema)
            (Array.to_list (Array.map (Schema.attribute schema) positions))
        in
        let proj_sigma =
          Cfd.number
            (List.map (fun cid -> Cfd.with_schema proj_schema sigma.(cid)) cids)
        in
        let proj_rel = Relation.create proj_schema in
        Relation.iter
          (fun t ->
            let values = Tuple.project t positions in
            let weights = Array.map (Tuple.weight t) positions in
            Relation.add proj_rel
              (Tuple.create ~weights ~tid:(Tuple.tid t) values))
          db;
        (positions, proj_sigma, proj_rel))
      groups
  in
  let results = Array.make n_groups None in
  let task i () =
    let _, proj_sigma, proj_rel = shards.(i) in
    (* pool:None — tasks must not submit to the pool they run on; the
       shard-level fan-out is the parallelism. *)
    results.(i) <-
      Some (repair_single ~use_dependency_graph ~deadline proj_rel proj_sigma)
  in
  (match pool with
  | Some pool when Pool.jobs pool > 1 && n_groups > 1 ->
    Pool.run pool (Array.init n_groups (fun i () -> task i ()))
  | _ ->
    for i = 0 to n_groups - 1 do
      task i ()
    done);
  let first_error = ref None in
  Array.iter
    (fun r ->
      match r with
      | Some (Error e) when !first_error = None -> first_error := Some e
      | _ -> ())
    results;
  match !first_error with
  | Some e -> Error e
  | None ->
    (* Merge, in shard order: copy the input and write back each shard's
       changed cells.  Disjoint attribute sets make the write-back order
       irrelevant to the final relation; fixing it keeps the provenance
       trail (and hence the report) deterministic. *)
    let rel = Relation.copy db in
    let cells_changed = ref 0 in
    let acc =
      ref
        {
          steps = 0;
          merges = 0;
          rhs_fixes = 0;
          lhs_fixes = 0;
          nulls_introduced = 0;
          cells_changed = 0;
          instantiate_visits = 0;
          runtime = 0.;
        }
    in
    let phases = ref [] in
    let provenance = ref [] in
    let degraded = ref None in
    Array.iteri
      (fun i r ->
        match r with
        | Some (Ok ((shard_rel, s), (report : Report.t))) ->
          let positions, _, _ = shards.(i) in
          Relation.iter
            (fun t ->
              let full = Relation.find_exn rel (Tuple.tid t) in
              Array.iteri
                (fun j pos ->
                  let v = Tuple.get t j in
                  if not (Value.equal v (Tuple.get full pos)) then begin
                    Relation.set_value rel full pos v;
                    incr cells_changed
                  end)
                positions)
            shard_rel;
          acc :=
            {
              steps = !acc.steps + s.steps;
              merges = !acc.merges + s.merges;
              rhs_fixes = !acc.rhs_fixes + s.rhs_fixes;
              lhs_fixes = !acc.lhs_fixes + s.lhs_fixes;
              nulls_introduced = !acc.nulls_introduced + s.nulls_introduced;
              cells_changed = 0;
              instantiate_visits =
                !acc.instantiate_visits + s.instantiate_visits;
              runtime = 0.;
            };
          phases :=
            !phases
            @ List.map
                (fun (name, secs) ->
                  (Printf.sprintf "shard%d.%s" i name, secs))
                report.Report.phases;
          provenance :=
            !provenance
            @ List.map
                (fun (e : Provenance.entry) ->
                  { e with Provenance.attr = positions.(e.Provenance.attr) })
                report.Report.provenance;
          (match report.Report.degraded with
          | Some d when !degraded = None -> degraded := Some d
          | _ -> ())
        | _ -> assert false)
      results;
    let stats =
      {
        !acc with
        cells_changed = !cells_changed;
        runtime = Unix.gettimeofday () -. started;
      }
    in
    let report =
      Report.make ~engine:"batch_repair"
        ~summary:
          [
            ("steps", Dq_obs.Json.Int stats.steps);
            ("merges", Dq_obs.Json.Int stats.merges);
            ("rhs_fixes", Dq_obs.Json.Int stats.rhs_fixes);
            ("lhs_fixes", Dq_obs.Json.Int stats.lhs_fixes);
            ("nulls_introduced", Dq_obs.Json.Int stats.nulls_introduced);
            ("cells_changed", Dq_obs.Json.Int stats.cells_changed);
            ("shards", Dq_obs.Json.Int n_groups);
          ]
        ~phases:!phases ~provenance:!provenance ?degraded:!degraded ()
    in
    Ok ((rel, stats), report)

let repair ?pool ?(use_dependency_graph = true) ?(deadline = Deadline.never)
    ?checkpoint ?resume ?partition db sigma =
  match partition with
  | None ->
    repair_single ?pool ~use_dependency_graph ~deadline ?checkpoint ?resume db
      sigma
  | Some partition ->
    if checkpoint <> None || resume <> None then
      Error
        (Dq_error.Invalid_config
           "partitioned repair does not support checkpoint/resume")
    else if Array.length partition <> Array.length sigma then
      Error
        (Dq_error.Invalid_config
           "partition length does not match the ruleset")
    else if Array.exists (fun s -> s < 0) partition then
      Error (Dq_error.Invalid_config "partition contains a negative shard id")
    else begin
      let n_shards =
        Array.fold_left (fun acc s -> max acc (s + 1)) 0 partition
      in
      if n_shards <= 1 then
        repair_single ?pool ~use_dependency_graph ~deadline db sigma
      else
        repair_partitioned ?pool ~use_dependency_graph ~deadline db sigma
          partition n_shards
    end
