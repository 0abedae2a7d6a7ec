(** The sharded serving scenario: N monitor shards (one {!Varan_nvx.Session}
    each, running a memcached-style multi-unit server) behind the sticky
    {!Varan_nvx.Router}, driven by the open-loop Poisson generator, all
    on one simulated machine so the shards overlap in virtual time.

    Used by the serving benchmark ([BENCH_serving.json]), the
    [varan serve] CLI and the serving tests. The arrival rate in
    {!default} is set well above the 8-shard saturation point, so
    measured req/s is pool capacity and the shard-count curve is the
    linear-scaling evidence ROADMAP item 4 asks for. *)

type spec = {
  sv_shards : int;
  sv_followers : int;  (** per shard *)
  sv_units : int;  (** server units (threads) per shard *)
  sv_work_cycles : int;  (** per-command server work *)
  sv_clients : int;  (** distinct simulated client identities *)
  sv_requests : int;  (** total open-loop arrivals *)
  sv_mean_gap_cycles : float;  (** Poisson inter-arrival mean, cycles *)
  sv_workers : int;  (** client tasks multiplexing the ids *)
  sv_warmup : int;  (** arrivals excluded from stats *)
  sv_seed : int;
  sv_policy : Varan_nvx.Lifecycle.policy option;
      (** per-shard watchdog policy; [None] disables the lifecycle
          manager entirely *)
}

val serving_policy : Varan_nvx.Lifecycle.policy
(** The torture watchdog defaults with the lag/stall thresholds backed
    off — a saturated shard legitimately runs its followers deep behind
    the leader, and honest backlog must not read as sickness. *)

val default : spec
(** 1 shard, 1 follower, 2 units, 1M client ids over 48 workers, 4000
    arrivals at a 200-cycle mean gap (≫ 8-shard saturation). *)

type outcome = {
  o_measurement : Driver.measurement;
  o_result : Clients.result;
  o_router : Varan_nvx.Router.stats;
  o_degraded : (int * string) list;
  o_zygote_forks : int;
      (** forks served by the single shared zygote — shards*(followers+1)
          on a clean run *)
  o_rewrite_cache : Varan_binary.Rewrite_cache.stats;
      (** the shared cache: 1 cold rewrite, the rest rebases *)
  o_total_task_cycles : int64;
      (** {!Varan_sim.Engine.total_task_cycles} at quiescence — the
          denominator [varan serve --profile] judges attribution
          coverage against *)
  o_pool : Varan_nvx.Shard.t;
      (** the finished pool; [varan serve --stats-json] writes its
          {!Varan_nvx.Shard.counters} *)
}

val port_base : int -> int
(** Shard [i]'s first unit port (disjoint ranges per shard). *)

val run : ?label:string -> spec -> outcome
(** Build the machine, launch the shard pool and the open-loop load, run
    to quiescence (bounded by a generous cycle budget) and report. *)
