(** Per-tid event lanes: a sharded per-thread sequencer in front of the
    ring.

    With a single ring consumer per follower, sibling threads of a
    multi-threaded variant serialize on the ring head: only the thread
    whose tid matches the head event may proceed, and everyone else
    waits. A {!t} demultiplexes the consumer once, in stream order, into
    per-tid FIFO lanes so each thread replays its own syscall results at
    ring speed.

    Cross-thread ordering survives because events the [is_sync]
    predicate selects (lock acquisitions, descriptor grants, fork/exit,
    signals — anything whose {e global} order is the semantics) act as
    barriers: such an event is routed only when every earlier routed
    event has been consumed, and nothing further is routed until it is
    consumed itself. The leader logs its lock-acquisition order through
    these events and followers are forced to replay it (§3.3.3 of the
    paper).

    Not engine-blocking: no function here performs engine effects; the
    caller (the session layer) decides when to wait and what to charge. *)

type t

val create :
  consumer:Event.t Ring.consumer ->
  is_sync:(Event.t -> bool) ->
  on_route:(Event.t -> unit) ->
  capacity:int ->
  t
(** [on_route] runs once per event, in stream order, right after the
    event lands in its lane — the demux-time Lamport-clock check. If it
    raises, the event stays in the lane so {!drain} still reaches its
    payload. [capacity] bounds routed-but-unconsumed events (≥ 1). *)

val pump : t -> unit
(** Demultiplex as many published events as the barrier and capacity
    allow. Non-blocking; safe to call from any sibling thread (they are
    engine tasks, so calls never interleave). *)

val peek : t -> tid:int -> Event.t option
(** Next unconsumed event for this thread, if any has been routed. *)

val advance : t -> tid:int -> bool
(** Consume the head event of [tid]'s lane. Returns [true] when the
    consumption may have unblocked the pump (barrier lifted, dropped
    below capacity, or lanes emptied) — the caller should poke the ring
    so parked siblings re-pump. @raise Invalid_argument on an empty
    lane. *)

val is_empty : t -> bool
(** No routed-but-unconsumed events. Together with a just-run {!pump}
    this implies the ring is also drained {e or} blocked on a sync event
    — and a sync event would have been routed when [is_empty], so after
    [pump]: [is_empty t] ⟹ nothing consumable anywhere. *)

val outstanding : t -> int
(** Routed-but-unconsumed event count (the lanes' contribution to a
    follower's lag). *)

val drain : t -> Event.t list
(** Teardown: remove and return every routed-but-unconsumed event (for
    payload release), clearing the barrier. *)
