(** In-memory relation instances.

    A relation owns a set of {!Tuple.t}s over a fixed {!Schema.t}, assigns
    stable tuple identifiers, and maintains per-attribute active domains
    ([adom(A,D)], Section 2 of the paper) incrementally.  Active domains are
    the value pools repairs draw from: the algorithms never invent new
    constants (Section 3.1).

    Value updates must go through {!set_value} so the active-domain index
    stays consistent; mutating a member tuple directly with {!Tuple.set}
    bypasses the index and is unsupported. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val cardinality : t -> int

val insert : ?weights:float array -> t -> Value.t array -> Tuple.t
(** Insert a row with a fresh tid and return the stored tuple. *)

val add : t -> Tuple.t -> unit
(** Insert a tuple preserving its tid (used to move tuples between the dirty
    database and a repair under construction).  The tuple is stored by
    reference.  @raise Invalid_argument if the tid is already present or the
    arity does not match the schema. *)

val delete : t -> int -> bool
(** Delete by tid; returns whether the tuple was present. *)

val find : t -> int -> Tuple.t option
(** Look up by tid. *)

val find_exn : t -> int -> Tuple.t

val mem : t -> int -> bool

val set_value : t -> Tuple.t -> int -> Value.t -> unit
(** Modify one attribute value in place, keeping active domains current.
    The tuple must belong to this relation. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Iterate in insertion order. *)

val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val to_list : t -> Tuple.t list

val tuples : t -> Tuple.t array
(** Snapshot of the current tuples in insertion order. *)

val active_domain : t -> int -> Value.t list
(** Distinct non-null values of the attribute at a position, in an
    unspecified but deterministic order. *)

val active_domain_size : t -> int -> int

val domain_count : t -> int -> Value.t -> int
(** [domain_count r pos v] is how many tuples hold [v] at the attribute
    ([0] outside the active domain, and for [null]). *)

val in_active_domain : t -> int -> Value.t -> bool

val copy : t -> t
(** Deep copy: fresh tuples (same tids), fresh indexes. *)

val dif : t -> t -> int
(** [dif d1 d2] counts attribute-level differences between tuples paired by
    tid (strict value equality), plus [arity] for every tid present in
    exactly one of the two — the difference measure of Section 1/3.3. *)

val pp : Format.formatter -> t -> unit
(** Render as an aligned table (for examples and debugging). *)
