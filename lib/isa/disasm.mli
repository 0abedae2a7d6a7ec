(** Linear-sweep disassembler.

    VARAN scans each executable segment with "a simple x86 disassembler"
    when it is mapped (§3.2); this is that component for the synthetic ISA.
    A byte that does not decode is treated as one byte of data and skipped,
    which mirrors the conservative behaviour a real rewriter needs on
    stripped binaries. *)

type item = {
  addr : int;  (** offset within the code buffer *)
  insn : Insn.t option;  (** [None] for an undecodable byte *)
  len : int;
}

val sweep : Bytes.t -> item list
(** Decode the whole buffer front to back. *)

val instructions : Bytes.t -> (int * Insn.t) list
(** Only the successfully decoded instructions of {!sweep}. *)

type scan = {
  targets : (int, unit) Hashtbl.t;
      (** addresses that some decoded branch jumps or calls to *)
  syscalls : int list;  (** addresses of [Syscall] instructions, ascending *)
}

val scan : Bytes.t -> scan
(** One linear sweep that collects both sets the rewriter needs, decoding
    each instruction once and building no item list. *)

val branch_targets : Bytes.t -> (int, unit) Hashtbl.t
(** [(scan buf).targets]. The rewriter must not relocate instructions at
    these addresses (§3.2). *)

val syscall_sites : Bytes.t -> int list
(** [(scan buf).syscalls]. *)
