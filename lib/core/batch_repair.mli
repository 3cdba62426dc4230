(** BATCHREPAIR (Section 4, Figures 4–5): heuristic repair of a dirty
    database against a set of CFDs.

    The algorithm maintains equivalence classes of tuple attributes
    ({!Eqclass}) and a per-clause set of (potentially) dirty tuples.  Each
    step, [PICKNEXT] scores one candidate fix per dirty (clause, tuple)
    pair and applies the cheapest:

    - case 1.1 — a constant-RHS clause with an unfixed target: upgrade the
      RHS class's target to the pattern constant;
    - case 2.1 — two tuples disagree on a wildcard-RHS clause and at least
      one RHS class is unfixed: merge the two classes;
    - cases 1.2 / 2.2 — the RHS targets are committed constants: change an
      LHS attribute instead, to a [FINDV]-chosen semantically related value
      if one resolves the violation, otherwise to [null].

    Every step merges classes or upgrades a target in the one-way lattice
    [_ → const → null], so the algorithm terminates (Theorem 4.2) even on
    CFD sets where RHS-only FD repairing would loop (Example 4.1).  When no
    dirty tuples remain, still-unfixed classes are instantiated with their
    least-cost constant, which may surface new violations; the loop then
    resumes until none remain. *)

open Dq_relation
open Dq_cfd

type stats = {
  steps : int;  (** resolution steps applied *)
  merges : int;  (** case-2.1 class merges *)
  rhs_fixes : int;  (** case-1.1 target upgrades *)
  lhs_fixes : int;  (** case-1.2/2.2 LHS changes *)
  nulls_introduced : int;  (** targets upgraded to [null] *)
  cells_changed : int;  (** attribute values differing from the input *)
  instantiate_visits : int;
      (** class roots visited across all instantiation rounds — the
          re-resolution churn metric the shard partition cuts: a
          full-width run revisits every cell's root each round, a
          partitioned run only the roots of each shard's own columns *)
  runtime : float;  (** wall-clock seconds *)
}

val pp_stats : Format.formatter -> stats -> unit

type checkpoint_spec = {
  path : string;  (** where to write snapshots ({!Checkpoint.save}) *)
  every : int;  (** write one every [every] pass boundaries (>= 1) *)
}

val repair :
  ?pool:Dq_parallel.Pool.t ->
  ?use_dependency_graph:bool ->
  ?deadline:Dq_fault.Deadline.t ->
  ?checkpoint:checkpoint_spec ->
  ?resume:Checkpoint.t ->
  ?partition:int array ->
  Relation.t ->
  Cfd.t array ->
  ((Relation.t * stats) * Dq_obs.Report.t, Dq_error.t) result
(** [repair d sigma] returns a repaired deep copy of [d] (tids preserved)
    satisfying [sigma], together with statistics and a structured
    {!Dq_obs.Report.t}.  The report's provenance trail holds one entry per
    effective-value change — replaying it over [d] with
    {!Dq_obs.Provenance.replay} reconstructs the repaired relation
    byte-for-byte — and its summary repeats the deterministic counters of
    [stats], so reports are {!Dq_obs.Report.equal} across job counts.
    [Error (Internal _)] signals a broken engine invariant (step budget or
    rescan convergence) — a bug, not a property of the input.

    The optional [pool] parallelises the initial Dirty_Tuples scan over
    constant clauses (valid because at initialisation effective values
    equal original values, so the scan is a pure read); offers are
    replayed in relation order, keeping the repair byte-identical at any
    job count.  The resolution loop itself — one globally cheapest fix at
    a time against shared union–find state — stays sequential.

    [PICKNEXT] is realised as a lazy priority queue over (clause, tuple)
    pairs keyed by plan cost: popped pairs are re-verified against the
    current targets and re-queued at their true cost when stale, so each
    step applies the globally cheapest live fix without rescanning every
    dirty tuple — the optimization that makes BATCHREPAIR scale
    (Section 7.2).  [use_dependency_graph] (default [true]) additionally
    biases freshly discovered violations by their stratum in the SCC
    condensation of the attribute dependency graph, so upstream clauses
    are scored first.

    {2 Deadlines}

    [deadline] stops the run cooperatively.  Wall-clock deadlines
    ({!Dq_fault.Deadline.after}) are polled every 1024 resolution steps
    and at every pass boundary; pass-count deadlines
    ({!Dq_fault.Deadline.after_passes}) tick {e only} at boundaries, so a
    run cut after [k] passes is exactly the first [k] passes of the
    uninterrupted run.  A cut run still instantiates every unfixed class
    — the result is a usable, fully-valued relation that may however
    still violate [sigma] — and its report carries
    [degraded = Some {reason; progress}], where [progress] is the share
    of known repair steps that were applied.  If the deadline expires
    before any step of a fresh run, there is nothing usable and the
    result is [Error Deadline_exceeded].

    {2 Checkpoint / resume}

    [checkpoint] snapshots the run's state ({!Checkpoint}) at pass
    boundaries — atomically, so a crash mid-write leaves the previous
    snapshot intact.  [resume] continues from such a snapshot: the
    relation and ruleset must be the ones the checkpoint was taken from
    (enforced by fingerprint; mismatch is [Error (Invalid_input _)]).

    Neither option changes a decision.  The engine never reads hash-table
    iteration order: offers, instantiation and float sums run in value or
    tid order, and a wildcard violation's merge partner is the smallest
    conflicting tid in the tuple's group.  So every batch run on the same
    input takes the same decisions, [checkpoint] changes nothing in the
    output, and a run killed at any point and resumed from its last
    checkpoint produces output byte-identical to the same run left
    uninterrupted.

    {2 Shard partition}

    [partition] maps each clause id to a shard id (the
    [Dq_analysis.Interaction] shard plan).  Clause groups with disjoint
    attribute sets are repaired independently — each over the projection
    of the input onto its own attributes — and the per-shard results are
    written back into one copy of the input.  Because no two shards touch
    a common attribute, the merged relation equals the full-width result,
    while each shard's queue, buckets and instantiation rounds only visit
    its own columns (see [stats.instantiate_visits]).  With a [pool],
    shards run as parallel pool tasks; the merge is in shard order either
    way, so output does not depend on the job count.  The report's
    summary gains a ["shards"] count and its phases are
    ["shardN."]-prefixed.  A partition whose clauses share attributes
    across shards would break the disjointness argument — use the
    analyzer's partition, which is correct by construction.  Partitioned
    repair refuses [checkpoint]/[resume]
    ([Error (Invalid_config _)]); a partition with a single shard (or
    [None]) falls back to the ordinary path. *)
