(** Binary min-heaps with explicit float priorities.

    Used for cost-ordered candidate selection in the repairing
    algorithms. *)

type 'a t

val create : ?tie:('a -> 'a -> int) -> unit -> 'a t
(** [create ()] breaks priority ties arbitrarily (by internal layout,
    which depends on the full add/pop history).  [create ~tie ()] breaks
    them with [tie], making the pop order a total order over entries — a
    pure function of the heap's contents, independent of the order they
    were added in.  Pass a tie-break whenever pop sequences must be
    replayable or composable across runs with different histories. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> priority:float -> 'a -> unit
(** Insert an element with the given priority (lower pops first). *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the element with the smallest priority; equal
    priorities are ordered by the [tie] comparator when one was supplied,
    arbitrarily otherwise. *)

val peek_min : 'a t -> (float * 'a) option

val clear : 'a t -> unit
