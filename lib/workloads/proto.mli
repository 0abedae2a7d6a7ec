(** Framed messages over the simulated TCP streams.

    All benchmark protocols (HTTP-ish requests, Redis-ish commands,
    memcached-ish gets) are carried as length-prefixed frames: a 4-byte
    little-endian length followed by the payload. Helpers here loop until
    a whole frame has been sent or received, so servers and clients stay
    correct even when the byte stream fragments. *)

open Varan_kernel

val send_msg : Api.t -> int -> Bytes.t -> (unit, Varan_syscall.Errno.t) result

val recv_msg : Api.t -> int -> (Bytes.t option, Varan_syscall.Errno.t) result
(** [Ok None] on clean EOF before a new frame starts. *)

val send_str : Api.t -> int -> string -> (unit, Varan_syscall.Errno.t) result
