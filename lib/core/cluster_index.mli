(** Cost-based indices (Section 5.2): the active-domain values of an
    attribute, indexed so that the candidate repair values nearest a query
    value can be listed in increasing Damerau–Levenshtein distance.

    The paper clusters the domain hierarchically and walks the clusters
    nearest-first, which makes the answer approximate and dependent on how
    the clusters were formed.  This index answers exactly instead: it keeps
    the distinct non-null values bucketed by the length of their rendering
    and scans the buckets outward from the query's length, stopping once the
    length gap (a lower bound on the distance) exceeds the k-th best
    distance found.  Its answer is therefore a function of the indexed
    values (and their frequencies) alone — not of the order they arrived in
    — so an index can be kept current with {!add} as a relation grows,
    instead of being rebuilt.

    Each lookup bumps the [inc.nearest_lookups] counter once and adds its
    number of distance computations to [inc.distance_calls]. *)

open Dq_relation

type t

val build : ?frequency:(Value.t -> int) -> Value.t list -> t
(** Index the given values; nulls are skipped and duplicates collapse.
    [frequency] ranks values at equal distance (higher first); it is read at
    lookup time and defaults to [0] for every value. *)

val of_attribute : Relation.t -> int -> t
(** [build] over the active domain of an attribute, ranked by
    {!Relation.domain_count} — read live, so it stays current as tuples are
    added to the relation.  The index itself learns new values only through
    {!add}. *)

val add : t -> Value.t -> unit
(** Index one more value.  Adding null or a value already present does
    nothing. *)

val size : t -> int
(** Number of distinct values indexed. *)

val nearest : t -> Value.t -> k:int -> Value.t list
(** The [k] indexed values that come first under the order (DL distance to
    the query's rendering, then higher frequency, then {!Value.compare}),
    in that order — all of them when fewer than [k] are indexed.  Values
    rendering exactly as the query come first. *)
