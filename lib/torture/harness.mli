(** The torture harness: one seed → one fully determined case.

    A case is a random syscall program, a random fault plan and a variant
    count, all derived from a single integer seed. Running it executes
    the program natively and under NVX with the plan injected and the
    trace oracle attached, then checks every invariant the paper claims
    failover preserves:

    - each surviving variant's observable digest equals the native run's;
    - every crash was planned (an {!Varan_fault.Plan.Injected} raise on a
      victim the plan names);
    - the oracle's report is clean (clocks, prefix delivery, payload
      balance, promotion accounting, fork rendezvous);
    - when survivors remain, exactly one of them holds the leader role;
    - the run stays inside the cycle budget (liveness under faults).

    Any failure reproduces from the seed alone — the [varan torture]
    subcommand re-runs it from the command line. *)

type case = {
  seed : int;
  followers : int;  (** 1–4 *)
  prog_len : int;
  ring_size : int;  (** before any [Ring_pressure] shrink *)
  plan : Varan_fault.Plan.t;
  lifecycle : Varan_nvx.Lifecycle.policy option;
      (** run the session with the follower lifecycle manager *)
  net : Varan_nvx.Config.net option;
      (** distributed mode: the last [remote_followers] followers
          consume tuple 0 through the cross-node ring bridge *)
}

val gen_case : int -> case
(** Derive the whole case deterministically from the seed. *)

val lifecycle_policy : Varan_nvx.Lifecycle.policy
(** The lifecycle sweep's policy: stall timeout well under the injected
    delays (every stall trips the watchdog), short backoffs, a respawn
    budget of 2. *)

val gen_lifecycle_case : int -> case
(** A case aimed at the lifecycle manager: follower-only stalls long
    enough (300k–1M cycles) that the watchdog must quarantine the sleeper
    rather than wait it out, sometimes a follower crash, never a leader
    fault. Uses {!lifecycle_policy}. *)

val describe_case : case -> string

val build_program : case -> Programs.op list
(** The case's workload: the generated ops plus a handler install when
    the plan posts signals, with forks spliced at the plan's positions. *)

type outcome = {
  native : string;  (** native-run digest *)
  digests : string array;  (** per-variant digest, index = variant idx *)
  alive : bool array;
  leader_idx : int;
  crashes : (int * string) list;
  report : Varan_trace.Oracle.report;
  stats : Varan_nvx.Session.stats;
  lifecycle : Varan_nvx.Lifecycle.report option;
  degraded : string option;
  budget_blown : bool;
  session : Varan_nvx.Session.t;
      (** the finished session, for post-run probes — time travel, tape
          and checkpoint introspection *)
}

val run_case : case -> outcome
(** Execute native + NVX runs. Deterministic in the case. *)

val run_ops : case -> Programs.op list -> outcome
(** Like {!run_case} but with an explicit workload instead of the
    case-derived one — the directed scenarios use this. *)

val check : case -> outcome -> string list
(** The invariant checks; empty means the case passed. *)

val run_seed : int -> case * outcome * string list
(** [gen_case], [run_case], [check] in one step. *)

val reset_registries : unit -> unit
(** Drop every entry from the process-wide stats and flight-recorder
    registries. Every case runner calls this first, so a sweep of
    hundreds of scoped sessions doesn't accumulate dead scopes (and
    [Varan_util.Stats.dump_json] describes the current case alone). *)

val json_of_outcome : fails:string list -> case -> outcome -> string
(** One JSON object (single line, no trailing newline) summarizing a
    finished case: seed and shape, per-variant digests against native,
    aliveness, crashes, degradation, the lifecycle/bridge/rewrite-cache/
    checkpoint counters and the check verdicts in [fails]. The
    [varan torture --json] report emits one of these per seed. *)

val check_lifecycle : case -> outcome -> string list
(** The lifecycle sweep's extra verdicts on top of {!check}: no illegal
    transitions; every follower either caught back up (digest identical
    to native) or is dead after exactly its respawn budget (fewer only
    under degradation); the leader's gate never waited on a quarantined
    consumer. *)

val run_lifecycle_seed : int -> case * outcome * string list
(** [gen_lifecycle_case], [run_case], then [check] plus
    [check_lifecycle]. *)

val gen_net_case : int -> case
(** A distributed case: 2–4 followers with 1..followers-1 of them behind
    the ring bridge on a simulated remote node, a link-fault plan
    (partitions, delays, reorders, drops, duplicates) and occasionally a
    single-node lifecycle fault mixed in, checkpointing on every third
    seed. At least one follower stays local. *)

val check_net : case -> outcome -> string list
(** The distributed sweep's extra verdicts on top of {!check} and
    {!check_lifecycle}: the bridge ran and shipped batches when the
    leader published, no accepted frame had a bad checksum, and an
    [Unreachable] park has a link fault to blame. *)

val run_net_seed : int -> case * outcome * string list
(** [gen_net_case], [run_case], then all three check layers. *)

(** {1 Contended-futex torture (per-tid lanes, lock-order replay)} *)

type futex_case = {
  f_seed : int;
  f_threads : int;  (** sibling threads per variant (up to 64) *)
  f_locks : int;  (** contended futex words *)
  f_rounds : int;  (** lock/unlock rounds per thread *)
  f_followers : int;
  f_ring_size : int;
  f_plan : Varan_fault.Plan.t;  (** follower-only crashes *)
}

val describe_futex_case : futex_case -> string

type futex_outcome = {
  fo_digests : string array;
      (** per-variant digest of the per-thread lock-acquisition logs,
          concatenated in tid order *)
  fo_alive : bool array;
  fo_leader_idx : int;
  fo_crashes : (int * string) list;
  fo_report : Varan_trace.Oracle.report;
  fo_budget_blown : bool;
}

val run_futex_case : ?leader_crash_at:int -> futex_case -> futex_outcome
(** Every thread loops futex_lock → streamed getpid → futex_unlock over
    the shared lock set, logging each acquisition index.
    [leader_crash_at] adds a leader crash at that stream sequence (the
    directed promotion scenario). *)

val check_futex :
  ?planned_leader_crash:bool -> futex_case -> futex_outcome -> string list
(** Every alive variant's digest equals the (current) leader's — the
    follower reproduced the leader's global lock-acquisition order —
    plus the usual liveness, crash-provenance and oracle verdicts.
    Native is no yardstick here: monitor costs reshuffle the native lock
    order. *)

val run_futex_seed : int -> futex_case * futex_outcome * string list
(** [gen_futex_case], [run_futex_case], [check_futex] in one step. *)

(** {1 Sharded-pool torture (per-shard digest isolation)} *)

type shard_case = {
  sc_seed : int;
  sc_shards : int;  (** 2–4 *)
  sc_followers : int;  (** per shard, 1–2 *)
  sc_prog_len : int;
}

val gen_shard_case : int -> shard_case
(** Derive a sharded-pool case deterministically from the seed. *)

val describe_shard_case : shard_case -> string

type shard_outcome = {
  so_natives : string array;
      (** per-shard digest of the shard's program run alone on a fresh
          kernel *)
  so_digests : string array array;  (** [.(shard).(variant)] *)
  so_alive : bool array array;
  so_zygote_forks : int;  (** served by the pool's one shared zygote *)
  so_rewrite : Varan_binary.Rewrite_cache.stats;
  so_budget_blown : bool;
}

val run_shard_case : shard_case -> shard_outcome
(** Native runs per shard, then the whole pool — one {!Varan_nvx.Shard}
    launch on one kernel, sharing the zygote and rewrite cache — run to
    quiescence. Deterministic in the case. *)

val check_shard : shard_case -> shard_outcome -> string list
(** Every variant of every shard alive and digest-identical to its own
    shard's native run (co-residency leaks nothing across shards), and
    the shared zygote served exactly [shards * (followers+1)] forks. *)

val run_shard_seed : int -> shard_case * shard_outcome * string list
(** [gen_shard_case], [run_shard_case], [check_shard] in one step. *)
