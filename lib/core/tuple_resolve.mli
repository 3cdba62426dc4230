(** TUPLERESOLVE (Section 5.1, Figure 7): repair a single tuple against a
    clean relation.

    Given the current repair [Repr] (clean) and a tuple [t] to insert,
    greedily pick the best set [C] of at most [k] attributes and values
    [v̂] over [adom(Repr) ∪ {null}] such that [Repr ∪ {t[C/v̂]}] satisfies
    every clause whose attributes are all fixed, minimising

    {v costfix(C, v̂) = cost(t, t[C/v̂]) · (1 + vio(t[C/v̂])) v}

    then freeze [C] and repeat until every attribute is fixed.  (The paper
    multiplies by [vio] alone; we add 1 so that among violation-free
    candidates the cheaper change still wins rather than all tying at 0.)

    Optimizations from Section 5.2 are built in: LHS-indices answer the
    satisfaction and [vio] checks in O(|Σ|), and cost-based indices
    ({!Cluster_index}) propose the values nearest the current one — looked
    up once per open attribute per {!resolve} call.  Attributes mentioned
    in no violated clause are frozen immediately at zero cost, so clean
    tuples resolve in O(|Σ|). *)

open Dq_relation

type env
(** Shared state for resolving a stream of tuples against a growing repair:
    the repair relation, its LHS-indices, and per-attribute nearest-value
    indices (built on first use, then kept current by {!register}). *)

val make_env :
  ?k:int ->
  ?max_candidates:int ->
  ?use_cluster_index:bool ->
  Relation.t ->
  Dq_cfd.Cfd.t array ->
  env
(** [make_env repr sigma] builds the environment.  [k] (default 2) is the
    number of attributes fixed per greedy step; [max_candidates] (default
    6) caps candidate values per attribute; [use_cluster_index] (default
    true) toggles the cost-based index (the ablation of DESIGN.md §5.2). *)

val register : env -> Tuple.t -> unit
(** Record a tuple that has been added to the repair, keeping the
    LHS-indices and nearest-value indices current ([Repr] grows tuple by
    tuple in INCREPAIR).  Lookups depend only on the relation's contents,
    so an env after N registrations resolves exactly like a fresh
    {!make_env} over the same relation. *)

val resolve : env -> Tuple.t -> Tuple.t
(** A repaired copy of the tuple (same tid and weights) such that adding it
    to the environment's relation keeps it clean. *)

val vio_against : env -> Tuple.t -> int
(** How many clauses the tuple would violate against the current repair —
    exposed for orderings and diagnostics. *)
