(** Software revisions used in the paper's Section 5 experiments.

    {b Lighttpd} (§5.2, multi-revision execution): pairs of consecutive
    revisions from the Mx feasibility study whose syscall sequences
    diverge —
    - 2435 → 2436: the [issetugid()] change replaces
      [geteuid(); getegid()] with [geteuid(); getuid(); getegid();
      getgid()] before the configuration [open], exactly the divergence
      of Listing 1;
    - 2523 → 2524: an additional [read] of [/dev/urandom] for extra
      entropy at startup;
    - 2577 → 2578: an additional [fcntl] setting [FD_CLOEXEC] on a
      descriptor.

    {b Redis} (§5.1, transparent failover): a range of eight consecutive
    revisions in which the newest introduced a segfault on [HMGET]. *)

type lighttpd_rev = R2435 | R2436 | R2523 | R2524 | R2577 | R2578

val lighttpd_variant :
  rev:lighttpd_rev -> port:int -> expected_conns:int ->
  Varan_nvx.Variant.t
(** A lighttpd instance of the given revision (serving /www/index.html),
    with the rewrite rules needed when it runs as a follower of the
    paired older revision already attached. *)

val redis_revision :
  buggy:bool -> name:string -> port:int -> expected_conns:int ->
  Varan_nvx.Variant.t
(** One Redis revision; [buggy] marks the newest revision (7fb16ba),
    which crashes while processing HMGET. *)

val setup_fs : Varan_kernel.Types.t -> unit
