(** Disruptor-style shared ring buffer (§3.3.1 of the paper).

    One producer (the leader) and any number of consumers (followers)
    share a fixed-size ring. The producer may not overwrite a slot some
    consumer has not read yet, so it stalls when the ring is full — this
    is the backpressure that makes a slow follower eventually slow the
    leader down. Consumers stall when they are caught up; the NVX layer
    chooses whether a stall busy-waits or blocks on a waitlock and charges
    cycles accordingly — the ring only counts the stalls.

    Events are deallocated as soon as every consumer has passed them
    (the paper's in-memory log is fixed size), so the ring also reports
    each consumer's {e lag}, used by the live-sanitization experiment.

    {b Hot path.} Each reader holds its {!type:consumer} handle, so no
    operation looks a consumer up. The producer gates on a cached
    minimum-cursor sequence that is refreshed only when the cache says
    the ring is full; wakeups are taken only when someone is parked
    ({!Varan_sim.Engine.Cond.broadcast_if_waiting}); and the batch APIs
    claim or drain runs of slots with one gate check and one wakeup per
    run. See DESIGN.md §Hot path. *)

type 'a t

type 'a consumer
(** A consumer handle, held by the reader that owns the cursor. Using a
    handle after {!unsubscribe} is a programming error (consumes would
    assert on reclaimed slots). *)

val create : ?size:int -> string -> 'a t
(** [size] defaults to 256 events, the prototype's default. *)

val size : 'a t -> int
val name : 'a t -> string

val subscribe : 'a t -> 'a consumer
(** Register a consumer starting at the current head (it will only see
    events published after this call). *)

val consumer_cid : 'a consumer -> int
(** The consumer's id, as reported to taps and the stall hook. *)

val unsubscribe : 'a consumer -> unit
(** Unsubscribe (e.g. a crashed follower, §5.1): its cursor no longer
    holds back the producer. Idempotent. *)

val active_consumers : 'a t -> int

val publish : 'a t -> 'a -> unit
(** Append one event; blocks while the ring is full. *)

val wait_not_full : 'a t -> unit
(** Block until the ring has space for one event. A caller that makes no
    engine call between this and {!publish_now} publishes into the slot
    it waited for — how leaders stamp an event with a Lamport timestamp
    taken atomically with the slot claim (§3.3.3). *)

val publish_now : 'a t -> 'a -> unit
(** Append one event without waiting: the caller has just returned from
    {!wait_not_full} with no engine call since. *)

val try_publish : 'a t -> 'a -> bool
(** Non-blocking variant; [false] when full. *)

val publish_batch : 'a t -> 'a array -> unit
(** Append a run of events, blocking as needed. Each wait-free run of
    slots is claimed with a single gate check and consumers are woken
    once per run (not per event); taps still fire per event, in order.
    Equivalent to [Array.iter (publish t) vs] for every observer. *)

val consume_h : 'a consumer -> 'a
(** The next unread event, blocking while none is available. *)

val try_consume_h : 'a consumer -> 'a option

val consume_batch_h : 'a consumer -> max:int -> 'a list
(** Block until at least one event is available, then drain up to [max]
    already-published events with one gate check and one producer wakeup
    for the whole run, oldest first. Equivalent to repeated {!consume_h}
    for every observer. *)

val try_consume_batch_h : 'a consumer -> max:int -> 'a list
(** Non-blocking batch drain; [[]] when nothing is available. *)

val peek_h : 'a consumer -> 'a option
(** Next unread event without advancing. *)

val lag_h : 'a consumer -> int
(** Events published but not yet read by this consumer. *)

val cursor_h : 'a consumer -> int
(** The next sequence number this consumer will read. *)

val unread_h : 'a consumer -> 'a list
(** Events published but not yet read by this consumer, oldest first —
    what the failover path must account for (e.g. releasing payload
    references) when a crashed consumer is removed. *)

val published : 'a t -> int
(** Total events ever published. *)

val wait_activity_timeout : 'a t -> int -> bool
(** [wait_activity_timeout t cycles] waits for activity for at most the
    given budget; [false] on timeout. The adaptive-spin phase of the
    waitlock protocol (§3.3.1). *)

val wait_activity : 'a t -> unit
(** Block until something happens on the ring — a publish, a consume or a
    {!poke}. Used by follower threads waiting for a sibling to take the
    head event, and by the failover path. *)

val poke : 'a t -> unit
(** Wake everyone blocked on the ring (publishers, consumers and
    {!wait_activity} waiters) so they can re-examine shared state — the
    coordinator uses this during leader replacement (§3.3.2). *)

type stats = {
  publishes : int;
  consumes : int;
  producer_stalls : int;  (** publisher found the ring full *)
  consumer_stalls : int;  (** a consumer found the ring empty *)
  publish_wakeups : int;
      (** publish-side wakeups actually taken (some consumer was parked) *)
  consume_wakeups : int;
      (** consume-side wakeups actually taken (producer or activity
          waiter was parked) *)
  gate_recomputes : int;
      (** times the producer had to re-fold the registry because the
          cached gating sequence was reached *)
}

val stats : 'a t -> stats

(** {1 Taps}

    A tap observes every publish and every consume with the event's
    sequence number — the trace oracle's view of the stream. Callbacks
    run synchronously inside the ring operation and must not block or
    perform engine effects. *)

type 'a tap = {
  tap_publish : seq:int -> 'a -> unit;
  tap_consume : cid:int -> seq:int -> 'a -> unit;
}

val set_tap : 'a t -> 'a tap option -> unit

(** {1 Gate introspection}

    Who is the producer actually waiting for? The follower-lifecycle
    watchdog needs to prove a quarantined consumer can never again hold
    the leader's publish path, so the ring exposes a hook that fires on
    every producer park. *)

val set_stall_hook : 'a t -> (int list -> unit) option -> unit
(** Install a callback invoked each time a publisher parks on a full
    ring, with the cids of the active consumers whose cursor sits on the
    gating sequence at that instant — the consumers the producer is
    blocked on. Like taps, the callback runs synchronously and must not
    block or perform engine effects. *)
