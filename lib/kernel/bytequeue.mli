(** FIFO byte queue used for pipe and socket buffers.

    Semantically a TCP-style byte stream: writers append chunks, readers
    consume any available prefix; chunk boundaries are not preserved. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of buffered bytes (default 1 MiB);
    {!write} refuses to exceed it. *)

val length : t -> int
val is_empty : t -> bool
val space : t -> int

val write : t -> Bytes.t -> int
(** [write q b] appends as much of [b] as capacity allows and returns the
    number of bytes accepted (0 when full). *)

val read : t -> int -> Bytes.t
(** [read q n] removes and returns up to [n] buffered bytes (an empty
    result iff the queue is empty). *)

val peek : t -> int -> Bytes.t
(** Like {!read} without removing. *)
