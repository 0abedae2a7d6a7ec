(** The ring bridge: one consumer on the leader's ring, a mirror ring on
    the remote node, and a go-back-N protocol in between.

    The sender drains the local ring in batches (one consumer among the
    followers, so ring backpressure sees it like any other), flattens
    each event's shared-memory payload into the event itself, and ships
    sequenced, checksummed batch frames over a {!Link}. The receiver
    acknowledges cumulatively on receipt and republishes each in-order
    batch into the mirror ring, where remote followers consume exactly
    as local ones do. Out-of-order or duplicate batches are dropped and
    re-acked; unacked batches are retransmitted on a per-batch timer
    with exponential backoff, forever — a retransmit is also the probe
    that detects a healed partition.

    {b Selective replication} (dMVX): payload bytes are charged to the
    wire only for events the remote variant cannot reproduce locally
    (network receives, entropy, time — the [must_replicate] predicate);
    locally-reproducible results (file reads off the replicated disk)
    ship as header-only deltas. The simulation still carries the bytes
    in-process so replay digests stay exact; the accounting models the
    wire, and [bytes_saved] reports the dividend.

    {b Epochs.} {!detach} parks the bridge: the local consumer
    unsubscribes (its unread payload references released), so the leader
    can never gate on an unreachable remote node. In-flight batches keep
    retransmitting; the first ack that comes back fires [on_heal] once.
    {!reattach} then starts epoch [e+1] with a fresh mirror ring and a
    new local consumer subscribed at the current head — the lifecycle
    layer replays the gap from checkpoint + tape before splicing remote
    followers onto the new mirror. Frames and acks from dead epochs are
    ignored. *)

type config = {
  batch_max : int;  (** events coalesced per frame *)
  window : int;  (** max unacked frames in flight *)
  rto : int;  (** initial retransmit timeout, cycles *)
  rto_max : int;  (** backoff cap *)
  header_bytes : int;  (** fixed per-frame wire overhead *)
  serialize_cost : int;  (** sender cycles per event *)
  publish_cost : int;  (** receiver cycles per republished event *)
}

val default_config : config

type t

val create :
  local_node:Node.t ->
  remote_node:Node.t ->
  local:Varan_ringbuf.Event.t Varan_ringbuf.Ring.t ->
  mirror:Varan_ringbuf.Event.t Varan_ringbuf.Ring.t ->
  ?cfg:config ->
  ?latency:int ->
  ?cycles_per_kb:int ->
  ?faults:(seq:int -> Link.fault list) ->
  materialize:(Varan_ringbuf.Event.t -> Varan_ringbuf.Event.t) ->
  discard:(Varan_ringbuf.Event.t -> unit) ->
  must_replicate:(Varan_ringbuf.Event.t -> bool) ->
  unit ->
  t
(** Build the bridge and its internal {!Link}, subscribe the local
    consumer, and spawn the sender, receiver and ack tasks. Must be
    called before the first publish on [local] (the sender's sequence
    accounting starts at zero). [materialize e] must return [e] with any
    pooled payload flattened inline and this consumer's pool reference
    released; [discard e] releases the reference without flattening
    (unread events on detach). *)

val set_on_heal : t -> (unit -> unit) -> unit
(** [f] runs (in task context, at most once per detached period) when an
    ack arrives while the bridge is detached — the partition healed. *)

val detach : t -> unit
(** Park the bridge (task context): unsubscribe the local consumer,
    discard its unread events, stop the sender. Idempotent. In-flight
    retransmit timers keep probing. *)

val abandon : t -> unit
(** Detach (if needed) and bump the epoch WITHOUT reattaching: every
    retransmit probe dies at its next wakeup. For sessions that will
    never rejoin the remote node (degraded, or all remote followers
    dead) — an immortal probe would keep the engine from quiescing. *)

val reattach :
  t -> mirror:Varan_ringbuf.Event.t Varan_ringbuf.Ring.t -> remote_base:int -> unit
(** Start a new epoch (task context): fresh mirror ring whose sequence 0
    corresponds to global stream sequence [remote_base], new local
    consumer at the current head. The caller must read the local ring's
    head and call this with no intervening engine effects so
    [remote_base = published local] holds. *)

val detached : t -> bool

val stalled_since : t -> int64 option
(** [Some t0] when batches are in flight and no ack has advanced the
    window since [t0] — the watchdog's link-degradation signal. [None]
    when nothing is outstanding or acks are flowing. *)

type stats = {
  batches : int;
  events_forwarded : int;
  retransmits : int;
  acks : int;  (** cumulative acks received by the sender *)
  dup_acks : int;  (** stale-epoch or no-progress acks *)
  checksum_failures : int;
  bytes_on_wire : int;  (** wire bytes actually charged, data + acks *)
  bytes_saved : int;  (** payload bytes elided by selective replication *)
  detaches : int;
  heals : int;  (** reattaches; [detaches - heals] partitions never healed *)
}

val stats : t -> stats
val link_stats : t -> Link.stats
val pp_stats : Format.formatter -> stats -> unit
