(** LHS-indices (Section 5.2).

    Over a {e clean} relation, the index maps the [X] values [t'[X]] of
    the tuples to the unique [A] value the relation holds for them, with
    {e one table per embedded FD} [X → A] of Σ's wildcard-RHS clauses (see
    {!Clause_index}): tuples that agree on [X] match the same pattern
    rows, so every wildcard row of an FD reads the same entry.  A
    candidate tuple is then checked against the clauses the compiled
    anchored lookup offers, one hash lookup each, instead of a scan — the
    workhorse of [TUPLERESOLVE].

    Constant-RHS clauses need no table: the expected value is [tp[A]]
    itself, so checking is a direct pattern test.  Clause ids index Σ
    (see {!Cfd.number}). *)

open Dq_relation

type t

val build : Cfd.t array -> Relation.t -> t
(** Index a (clean) relation for every clause of Σ.  If the relation is not
    actually clean, the first non-null RHS value seen per key wins. *)

val add_tuple : t -> Tuple.t -> unit
(** Register a newly inserted (repaired) tuple, keeping the index current as
    the repair grows. *)

val expected_rhs : t -> Cfd.t -> Tuple.t -> Value.t option
(** The RHS value clause [cfd] forces on this tuple, if any: the constant
    [tp[A]] when the clause is constant, otherwise the indexed value for the
    tuple's LHS key.  [None] when the tuple does not match [tp[X]] or no
    tuple with this key has been indexed. *)

val violates : t -> Cfd.t -> Tuple.t -> bool
(** Would the tuple, if inserted, violate the clause against the indexed
    relation?  (Nulls resolve, as in {!Violation}.) *)

val vio : t -> Tuple.t -> int
(** Number of clauses of Σ the tuple would violate if inserted. *)
