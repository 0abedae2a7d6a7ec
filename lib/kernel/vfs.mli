(** In-memory filesystem: path resolution and directory operations.

    Paths are UNIX-style; relative paths resolve against a supplied working
    directory. The special device nodes [/dev/null], [/dev/zero] and
    [/dev/urandom] are created by {!Kernel.create}. *)

open Types

val normalize : cwd:string -> string -> string list
(** Absolute component list after resolving [.] and [..]. *)

val lookup : t -> cwd:string -> string -> (node, Varan_syscall.Errno.t) result
(** Resolve a path to a node ([ENOENT]/[ENOTDIR] on failure). *)

val create_file :
  t -> cwd:string -> string -> (node, Varan_syscall.Errno.t) result
(** Create (or return the existing) regular file at the path. *)

val mkdir : t -> cwd:string -> string -> (unit, Varan_syscall.Errno.t) result
val unlink : t -> cwd:string -> string -> (unit, Varan_syscall.Errno.t) result
val rmdir : t -> cwd:string -> string -> (unit, Varan_syscall.Errno.t) result

val rename :
  t -> cwd:string -> string -> string -> (unit, Varan_syscall.Errno.t) result

val add_file : t -> string -> string -> unit
(** [add_file k path contents] populates the filesystem from outside the
    simulation (document roots, config files); intermediate directories are
    created. @raise Invalid_argument on a path ending in [/]. *)

val file_size : node -> int
(** Size of a regular file (0 for devices and directories). *)

val read_file : t -> string -> string option
(** Whole-file read from outside the simulation, for tests. *)
