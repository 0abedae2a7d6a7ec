(** Sharded monitor serving layer.

    Runs N independent {!Session}s — one ring set, lifecycle watchdog
    and tape each — behind a sticky {!Router}, while sharing one spawn
    hub ({!Session.shared_spawn}: resident zygote + content-addressed
    rewrite cache) so spawn cost is paid once for the pool, not per
    shard. Per-shard registry counters are qualified with the shard
    scope ("shard2.lifecycle.respawns", "shard2.checkpoint.taken").

    Failure isolation: a quarantined follower or a degraded session on
    one shard never gates its siblings. The health ticker feeds session
    degradation into the router, which drains the degraded shard's
    connections to surviving shards. *)

type t

val launch :
  ?config:Config.t ->
  ?config_of:(int -> Config.t) ->
  ?router_seed:int ->
  ?health_period:int ->
  ?scope_of:(int -> string) ->
  Varan_kernel.Types.t ->
  shards:int ->
  variants_of:(int -> Variant.t list) ->
  t
(** Launch [shards] sessions on the kernel. [variants_of i] supplies
    shard [i]'s variant list; names must be unique across the pool (the
    shared zygote dispatches fork requests by name), so qualify them
    with the shard id. [config_of] overrides [config] per shard (beware
    sharing one [Config.oracle] across shards — ring registrations would
    collide; default config is safe). [health_period] is the router
    health-sync ticker period in cycles. [scope_of] overrides the
    default ["shardN"] stats scope. *)

val count : t -> int
val session : t -> int -> Session.t
val scope : t -> int -> string

val router : t -> Router.t

val route : t -> conn:int -> int
(** Sticky-route a client connection to a shard index (see {!Router}). *)

val healthy : t -> int -> bool
(** Whether the shard still runs full N-version execution (its session
    has not degraded to native leader-only). *)

val degraded : t -> (int * string) list
(** Shards whose sessions degraded, with reasons. *)

val hub : t -> Session.shared_spawn
(** The shared spawn hub (zygote + rewrite cache). *)

val zygote_forks : t -> int
(** Forks served by the shared zygote across all shards — evidence the
    pool really shares one spawner. *)
