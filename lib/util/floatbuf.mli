(** Growable unboxed float array, in push order.

    Replaces the reversed [float list] the closed-loop client generator
    used to accumulate latencies — at million-request scale a list costs
    a cons cell plus a boxed float per sample; this doubles a flat
    [float array] instead and keeps samples oldest-first. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty buffer; [capacity] is the initial allocation (default
    1024 samples). *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Forget all samples (keeps the allocation). *)

val push : t -> float -> unit
(** Append one sample; amortised O(1). *)

val get : t -> int -> float
(** [get t i] is the [i]th sample in push order. Raises [Invalid_argument]
    out of bounds. *)

val to_array : t -> float array
(** Fresh array of the samples, oldest first. *)

val to_list : t -> float list
(** Samples oldest first (allocates; prefer {!to_array} for large runs). *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val summary : t -> Stats.summary option
(** Summary statistics over the samples, [None] when empty. *)
