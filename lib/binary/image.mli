(** ELF-like program images: segments with W⊕X permissions.

    The rewriter operates on executable segments and follows the W⊕X
    discipline throughout execution (§3.2): a segment is never writable
    and executable at the same time, so patching requires an explicit
    permission flip, exactly as [mprotect] round trips do in the real
    implementation. *)

type perm = { r : bool; w : bool; x : bool }

exception Wx_violation of string
(** Raised on any attempt to make a segment both writable and executable. *)

type segment = {
  seg_name : string;
  base : int;  (** virtual load address *)
  mutable data : Bytes.t;
  mutable perm : perm;
}

val rx : perm
val ro : perm

val make_segment : name:string -> base:int -> perm:perm -> Bytes.t -> segment
(** @raise Wx_violation if [perm] has both [w] and [x]. *)

val set_perm : segment -> perm -> unit
(** @raise Wx_violation if the new permission has both [w] and [x]. *)

val with_writable : segment -> (Bytes.t -> Bytes.t) -> unit
(** [with_writable seg f] flips an executable segment to RW, replaces its
    data with [f data], and restores the original permission — the
    rewriter's patching envelope. *)

type t = {
  image_name : string;
  segments : segment list;
  entry : int;
}

val make : name:string -> entry:int -> segment list -> t
