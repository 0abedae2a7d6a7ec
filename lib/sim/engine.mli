(** Deterministic discrete-event simulation engine.

    The engine runs cooperative {e tasks} — OCaml 5 effect-based fibers —
    over a virtual clock measured in CPU cycles. A task runs uninterrupted
    OCaml code between {e effect points} (consuming cycles, blocking,
    sleeping); at every effect point the engine requeues it and resumes the
    globally earliest task, so shared-state interleavings are totally
    ordered by virtual time and, on ties, by task creation order. This makes
    every simulation bit-for-bit reproducible.

    The kernel, ring buffer and NVX monitors are all built as ordinary
    OCaml data structures manipulated by tasks at effect points. *)

type t
(** A simulation engine instance. *)

type task_id = private int
(** Stable identifier for a spawned task. *)

exception Deadlock of string list
(** Raised by {!run} when no task is runnable but some are still blocked;
    carries the names of the blocked tasks. *)

exception Killed
(** Raised inside a task that is being killed, so that it can unwind. *)

exception Budget_exceeded of int64
(** Raised by {!run} / {!run_until_quiescent} when the simulation
    schedules work beyond the given cycle budget; carries the virtual
    time reached. The fault-injection harness uses it as a liveness
    oracle: a hung failover or a livelocked follower trips the budget
    instead of spinning forever. *)

val create : unit -> t

val spawn : t -> ?name:string -> (unit -> unit) -> task_id
(** [spawn t f] registers a new task executing [f], runnable at the current
    global virtual time. May be called from inside or outside a running
    simulation. *)

val run : ?cycle_budget:int64 -> t -> unit
(** Run until every task has finished. @raise Deadlock if tasks remain
    blocked with nothing runnable. @raise Budget_exceeded if
    [cycle_budget] is given and virtual time passes it. An exception
    that escapes a task ends that task and is recorded in {!failures};
    [run] does not re-raise it. *)

val run_until_quiescent : ?cycle_budget:int64 -> t -> unit
(** Like {!run} but treats remaining blocked tasks as acceptable (they are
    simply abandoned); used by benchmarks whose servers block in [accept]
    forever once the clients are done. *)

val add_ticker : t -> period:int -> (unit -> bool) -> unit
(** [add_ticker t ~period fn] installs a periodic scheduler-context hook:
    as the event loop advances virtual time past each multiple of
    [period] cycles, [fn] runs at that deadline, before any event due
    later. Returning [false] deactivates the ticker permanently.

    Tickers piggyback on scheduled work — they never enqueue events of
    their own, so they stop firing (and cannot keep the simulation alive)
    once the heap drains. [fn] runs outside any task: it must not perform
    engine effects (consume/sleep/wait/broadcast); reading state and
    calling {!spawn} to delegate effectful work to a task are the
    intended uses. The NVX follower watchdog is the canonical client.
    @raise Invalid_argument if [period <= 0]. *)

val now : t -> int64
(** Global high-water virtual time, in cycles. *)

val kill : t -> task_id -> unit
(** Forcibly terminate a task: if blocked or queued it is discarded; if it
    is the caller, {!Killed} is raised at the next effect point. Used to
    model variant crashes and teardown. *)

val is_alive : t -> task_id -> bool

val task_name : t -> task_id -> string

val failures : t -> (task_id * exn) list
(** Tasks that terminated with an uncaught exception, oldest first. *)

val task_switches : t -> int
(** Entries dispatched so far — the engine's task-switch count, and the
    one place that count is kept ([varan serve --stats-json] reports it
    as [engine.task_switches]). *)

val total_task_cycles : t -> int64
(** Sum over every task ever spawned of its lifetime so far — the vtime
    from spawn to its current local clock, busy and blocked alike. The
    denominator for {!Varan_obs.Profile} coverage: the attribution
    buckets partition this quantity (minus unattributed idle). Timed
    entries ({!after}) are not tasks and add nothing. *)

(** {1 Task-context operations}

    These must be called from inside a running task; calling them outside a
    simulation raises [Effect.Unhandled]. Inside a live task, the calls
    that cannot suspend ({!now_cycles}, {!clock}, {!self}, {!after},
    {!Cond.signal}, {!Cond.broadcast}, and {!consume}, {!sleep} and
    {!yield} when the task would be resumed next anyway) run as plain
    function calls without an effect round trip; the outcome is the
    same either way. *)

val consume : int -> unit
(** [consume cycles] advances the calling task's local clock. This is the
    only way simulated computation takes time. *)

val sleep : int -> unit
(** Block for the given number of cycles. *)

val now_cycles : unit -> int64
(** The calling task's local virtual time. *)

val clock : unit -> int
(** {!now_cycles} as an immediate [int]: reading it allocates nothing. *)

val self : unit -> task_id

val spawn_here : ?name:string -> (unit -> unit) -> task_id
(** Spawn a sibling task from inside a task, runnable at the caller's
    current local time. *)

val after : int -> (unit -> unit) -> unit
(** [after d fn] runs [fn] [d] cycles after the caller's current local
    time (negative [d] counts as 0), without spawning a task. It takes
    the same two dispatch slots as [spawn_here] of a task that sleeps
    [d] and then calls [fn], so the schedule, {!task_switches} and every
    virtual time match that form exactly. [fn] runs outside any task, on
    a timer clock set to its fire time: its {!Cond.signal} and
    {!Cond.broadcast} wake at that time and {!clock} reads it. It must
    not block or perform other engine effects, and any exception it
    raises propagates out of {!run}. Like {!spawn_here}, it raises
    {!Killed} in a killed task. *)

val kill_here : task_id -> unit
(** Kill another task from inside a task. *)

val yield : unit -> unit
(** Requeue at the same time, letting equal-time tasks run. *)

(** {1 Condition variables} *)

module Cond : sig
  type cond
  (** A broadcast/signal rendezvous. Waiters park their continuation; a
      signaller wakes them at [max (signal time, waiter time)]. *)

  val create : string -> cond
  val wait : cond -> unit
  (** Park until signalled. *)

  val wait_timeout : cond -> int -> bool
  (** [wait_timeout c cycles] parks until signalled or until [cycles] have
      elapsed; returns [true] if signalled, [false] on timeout. *)

  val signal : cond -> unit
  (** Wake the oldest waiter, if any. *)

  val broadcast : cond -> unit
  (** Wake every current waiter. *)

  val broadcast_if_waiting : cond -> unit
  (** {!broadcast}, but a complete no-op (not even an engine effect) when
      no waiter is parked. This is the targeted-wakeup primitive of the
      ring buffer's hot path: an uncontended publish or consume skips the
      wakeup entirely instead of broadcasting into the void. Safe to call
      from outside a task when there are no waiters. *)

  val waiters : cond -> int
  (** Number of currently parked (unclaimed) waiters. O(1). *)

  val has_waiters : cond -> bool
end
