(** Growable arrays.

    OCaml 5.1 does not ship [Dynarray]; relations, dirty-tuple queues and
    nearest-value indexes all need an amortised O(1) append structure, so
    we provide one.  Indices are dense: [0 .. length v - 1]. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set v i x] replaces the [i]-th element.  @raise Invalid_argument if out
    of bounds. *)

val push : 'a t -> 'a -> unit
(** Append one element at the end. *)

val pop : 'a t -> 'a option
(** Remove and return the last element, or [None] if empty. *)

val last : 'a t -> 'a option
(** The last element without removing it. *)

val clear : 'a t -> unit
(** Remove all elements (keeps the backing storage). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val find_opt : ('a -> bool) -> 'a t -> 'a option

val map : ('a -> 'b) -> 'a t -> 'b t

val filter : ('a -> bool) -> 'a t -> 'a t

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val to_array : 'a t -> 'a array

val of_array : 'a array -> 'a t

val copy : 'a t -> 'a t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort. *)
