(** Σ compiled once: which clauses can apply to a tuple, and which
    embedded FD each wildcard-RHS clause belongs to.

    A CFD is an embedded FD [X → A] plus a pattern tableau (Section 2).
    Tuples that agree on [X] either all match a pattern row's [tp[X]] or
    none do, so every wildcard row of one embedded FD groups tuples the
    same way, and a group's [vio] contribution is the same for each row a
    tuple matches.  Detection ({!Violation}) and the LHS-indices
    ({!Lhs_index}) therefore keep one group table per embedded FD, never
    one per clause.

    Clauses are identified by their position in the compiled Σ.  The
    index is read-only once built, so concurrent probes are safe. *)

open Dq_relation

type t

val compile : Cfd.t array -> t

val iter_candidates : t -> (int -> Value.t) -> (int -> unit) -> unit
(** [iter_candidates idx get f] calls [f i] for every clause [i] the tuple
    whose value at position [p] is [get p] could match — pattern tableaus
    can hold thousands of rows, so each clause is anchored on its first
    constant LHS pattern and looked up by the tuple's own value at that
    position.  The candidates are a superset of the matching clauses, so
    callers still test the full pattern.  Order: clauses with an
    all-wildcard LHS in Σ order, then, by ascending anchor position, the
    clauses anchored on [(p, get p)] in reverse Σ order.  Reading values
    through [get] lets a caller probe with values it has not written back
    yet. *)

val fd_count : t -> int
(** Number of distinct embedded FDs among the wildcard-RHS clauses. *)

val fd : t -> int -> int
(** The embedded FD of clause [i], numbered by first occurrence in Σ;
    [-1] when the clause's RHS pattern is a constant. *)

val fd_rhs : t -> int -> int
(** The RHS attribute position [A] of an embedded FD. *)

val fd_key : t -> int -> (int -> Value.t) -> Vkey.t
(** The tuple's [X] values for an embedded FD, in ascending position
    order, so clauses that list [X] differently share one key (see
    {!Cfd.same_embedded_fd}). *)

val iter_fd_rows : t -> int -> (int -> Value.t) -> (int -> unit) -> unit
(** [iter_fd_rows idx f get k]: {!iter_candidates} restricted to the
    wildcard-RHS clauses of embedded FD [f], in the same order. *)
