type task_id = int

exception Deadlock of string list
exception Killed
exception Budget_exceeded of int64

type task_state = Runnable | Blocked | Finished | Dead

(* ------------------------------------------------------------------ *)
(* Core types. Virtual time is int64 at the API boundary but a plain   *)
(* (63-bit) immediate int internally: cycle counts stay far below      *)
(* 2^62, and immediate arithmetic keeps the dispatch path free of      *)
(* int64 boxing and write barriers. Tasks carry a reusable resumption  *)
(* frame; dispatch entries are slab-allocated and recycled through a   *)
(* free list.                                                          *)
(* ------------------------------------------------------------------ *)

type _ Effect.t += E_no_frame : unit Effect.t

(* The "no parked frame" sentinel: a real continuation, captured once
   from a fiber that performs [E_no_frame] and is then abandoned, so it
   is never resumed. Every suspending effect is a [unit] effect, so one
   continuation type covers every park and storing the frame allocates
   nothing. *)
let no_frame : (unit, unit) Effect.Deep.continuation =
  let slot : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform E_no_frame
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | E_no_frame ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) -> slot := Some k)
          | _ -> None);
    };
  match !slot with Some k -> k | None -> assert false

type task = {
  id : task_id;
  name : string;
  start : int; (* spawn time; (time - start) is the task's lifetime *)
  mutable time : int; (* local virtual clock, cycles *)
  mutable state : task_state;
  mutable killed : bool;
  (* The parked continuation, else [no_frame]. The suspending handlers
     park it here and schedule a plain [Ek_resume] entry pointing back at
     the task. Exactly one entry (or cond link) owns the right to resume
     it; taking the frame (resetting it to [no_frame]) transfers
     ownership to the dispatcher, so a one-shot continuation is never
     resumed twice. *)
  mutable fr_k : (unit, unit) Effect.Deep.continuation;
  (* [wait_timeout]'s result, set by the dispatcher before it resumes
     the frame: [true] if signalled, [false] if the deadline expired. *)
  mutable fr_flag : bool;
  (* Intrusive cond-waiter links: [w_cond] is the cond the task is parked
     on and not yet claimed from, else [dummy_cond]; while it is set,
     [w_prev]/[w_next] thread the cond's waiter queue, with [dummy_task]
     at either end (stale otherwise). Only unclaimed waiters are linked,
     and every claim (signal, expiring deadline, kill) unlinks in O(1),
     so a park allocates nothing here. *)
  mutable w_cond : cond;
  mutable w_prev : task;
  mutable w_next : task;
  (* The pending [wait_timeout] deadline entry, else [dummy_entry]: an
     early signal or kill cancels it in O(1) instead of leaving a
     tombstone that later dispatches as a no-op. *)
  mutable fr_deadline : entry;
}

and entry = {
  mutable etime : int;
  mutable eseq : int;
  mutable ekind : ekind;
  mutable e_task : task; (* the task resumed or started; else [dummy_task] *)
  mutable e_fn : unit -> unit; (* only read for [Ek_run] and [Ek_timer] *)
  (* For [Ek_resume], the [fr_flag] to resume with; for [Ek_timer],
     "armed": the entry sits at its fire time rather than at the
     scheduling slot. *)
  mutable e_flag : bool;
  mutable e_due : int; (* an unarmed [Ek_timer]'s fire time *)
  mutable e_free : entry; (* free-list link; self when not on the list *)
}

and ekind =
  | Ek_cancelled (* inert: skipped (and recycled) without dispatching *)
  | Ek_resume (* resume [e_task]'s frame *)
  | Ek_run (* run [e_fn] as [e_task] — spawn bootstrap *)
  | Ek_timer (* run [e_fn] outside any task — see [after] *)

and cond = {
  c_name : string;
  mutable c_head : task; (* oldest linked waiter, else [dummy_task] *)
  mutable c_tail : task;
  (* Linked (unclaimed) waiters: signallers test "anyone there?" in O(1).
     The ring buffer's targeted-wakeup policy reads this on every
     publish/consume, so it must not degrade into a queue walk. *)
  mutable c_nwaiters : int;
}

(* The sentinels are never written: every link update tests for them
   and writes the cond's head or tail instead. *)
let rec dummy_task =
  {
    id = -1;
    name = "<dummy>";
    start = 0;
    time = 0;
    state = Dead;
    killed = true;
    fr_k = no_frame;
    fr_flag = false;
    w_cond = dummy_cond;
    w_prev = dummy_task;
    w_next = dummy_task;
    fr_deadline = dummy_entry;
  }

and dummy_entry =
  {
    etime = 0;
    eseq = 0;
    ekind = Ek_cancelled;
    e_task = dummy_task;
    e_fn = ignore;
    e_flag = false;
    e_due = 0;
    e_free = dummy_entry;
  }

and dummy_cond =
  {
    c_name = "<dummy>";
    c_head = dummy_task;
    c_tail = dummy_task;
    c_nwaiters = 0;
  }

(* The timer clock: the current-task slot holds it while an [after]
   callback runs, so the callback's clock reads and cond wakes see its
   fire time. It is not [killed], so those calls run directly. *)
let timer_task =
  {
    dummy_task with
    id = -2;
    name = "<timer>";
    state = Runnable;
    killed = false;
  }

module Heap = struct
  (* Binary min-heap on (etime, eseq); eseq breaks ties FIFO so execution
     order is deterministic. Holds only genuinely future wakeups — due-now
     entries go to the ready ring instead. The keys sit unboxed in [kt]
     and [ks] beside the entries, so a sift compares two int loads
     instead of chasing two entry pointers, and it moves a hole down (or
     up) instead of swapping. An entry's keys never change while it is
     in the heap. Keys are unique (eseq is), so any correct min-heap pops
     the identical sequence. *)
  type t = {
    mutable a : entry array;
    mutable kt : int array; (* a.(i).etime *)
    mutable ks : int array; (* a.(i).eseq *)
    mutable len : int;
  }

  let create () =
    {
      a = Array.make 256 dummy_entry;
      kt = Array.make 256 0;
      ks = Array.make 256 0;
      len = 0;
    }

  let grow h =
    let n = 2 * Array.length h.a in
    let a = Array.make n dummy_entry and kt = Array.make n 0 in
    let ks = Array.make n 0 in
    Array.blit h.a 0 a 0 h.len;
    Array.blit h.kt 0 kt 0 h.len;
    Array.blit h.ks 0 ks 0 h.len;
    h.a <- a;
    h.kt <- kt;
    h.ks <- ks

  (* Caller must check [len > 0]. *)
  let[@inline] top_time h = h.kt.(0)

  (* Does the heap's top come before the entry [e]? *)
  let[@inline] top_before h e =
    let t = h.kt.(0) in
    t < e.etime || (t = e.etime && h.ks.(0) < e.eseq)

  let push h e =
    if h.len = Array.length h.a then grow h;
    let a = h.a and kt = h.kt and ks = h.ks in
    let t = e.etime and s = e.eseq in
    let i = ref h.len in
    h.len <- h.len + 1;
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = kt.(p) in
      if t < pt || (t = pt && s < ks.(p)) then begin
        a.(!i) <- a.(p);
        kt.(!i) <- pt;
        ks.(!i) <- ks.(p);
        i := p
      end
      else moving := false
    done;
    a.(!i) <- e;
    kt.(!i) <- t;
    ks.(!i) <- s

  (* Caller must check [len > 0]; no option allocation on the hot path. *)
  let pop_top h =
    let a = h.a and kt = h.kt and ks = h.ks in
    let top = a.(0) in
    let n = h.len - 1 in
    h.len <- n;
    let last = a.(n) and t = kt.(n) and s = ks.(n) in
    a.(n) <- dummy_entry;
    if n > 0 then begin
      let i = ref 0 and moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= n then moving := false
        else begin
          let r = l + 1 in
          let c =
            if r < n && (kt.(r) < kt.(l) || (kt.(r) = kt.(l) && ks.(r) < ks.(l)))
            then r
            else l
          in
          let ct = kt.(c) in
          if ct < t || (ct = t && ks.(c) < s) then begin
            a.(!i) <- a.(c);
            kt.(!i) <- ct;
            ks.(!i) <- ks.(c);
            i := c
          end
          else moving := false
        end
      done;
      a.(!i) <- last;
      kt.(!i) <- t;
      ks.(!i) <- s
    end;
    top
end

module Ready = struct
  (* Flat FIFO ring of due-now entries. Scheduling never places an entry
     in the past (see [enqueue]), so everything here carries
     [etime = global_time] and FIFO order coincides with (etime, eseq)
     order — a same-timestamp resumption chain costs two array stores
     instead of a heap push + pop. Capacity is a power of two. *)
  type t = { mutable a : entry array; mutable head : int; mutable len : int }

  let create () = { a = Array.make 256 dummy_entry; head = 0; len = 0 }

  let grow r =
    let n = Array.length r.a in
    let bigger = Array.make (2 * n) dummy_entry in
    for i = 0 to r.len - 1 do
      bigger.(i) <- r.a.((r.head + i) land (n - 1))
    done;
    r.a <- bigger;
    r.head <- 0

  let push r e =
    if r.len = Array.length r.a then grow r;
    r.a.((r.head + r.len) land (Array.length r.a - 1)) <- e;
    r.len <- r.len + 1

  (* Caller must check [len > 0]. *)
  let front r = r.a.(r.head)

  let pop r =
    let e = r.a.(r.head) in
    r.a.(r.head) <- dummy_entry;
    r.head <- (r.head + 1) land (Array.length r.a - 1);
    r.len <- r.len - 1;
    e
end

(* Append [task] to [c]'s waiter queue. *)
let link_waiter c task =
  task.w_cond <- c;
  task.w_prev <- c.c_tail;
  task.w_next <- dummy_task;
  if c.c_tail == dummy_task then c.c_head <- task else c.c_tail.w_next <- task;
  c.c_tail <- task;
  c.c_nwaiters <- c.c_nwaiters + 1

(* Claim a linked waiter: every claim goes through here, so the queue
   holds exactly the unclaimed waiters and the count stays exact. *)
let unlink_waiter task =
  let c = task.w_cond and p = task.w_prev and n = task.w_next in
  if p == dummy_task then c.c_head <- n else p.w_next <- n;
  if n == dummy_task then c.c_tail <- p else n.w_prev <- p;
  task.w_cond <- dummy_cond;
  c.c_nwaiters <- c.c_nwaiters - 1

let cancel_deadline task =
  if task.fr_deadline != dummy_entry then begin
    task.fr_deadline.ekind <- Ek_cancelled;
    task.fr_deadline <- dummy_entry
  end

(* A ticker is a periodic scheduler-context hook: it fires as virtual
   time advances past its deadlines but never schedules heap entries of
   its own, so an otherwise-quiescent simulation is never kept alive by
   its watchdogs. Callbacks run outside any task and must not perform
   engine effects; they may call [spawn] to delegate work to a task. *)
type ticker = {
  tk_period : int;
  mutable tk_next : int;
  tk_fn : unit -> bool; (* [false] deactivates the ticker *)
  mutable tk_active : bool;
}

type t = {
  heap : Heap.t;
  ready : Ready.t;
  mutable free : entry; (* slab free list; [dummy_entry] = empty *)
  mutable seq : int;
  mutable next_id : task_id;
  tasks : (task_id, task) Hashtbl.t;
  mutable global_time : int;
  mutable failure_list : (task_id * exn) list; (* reversed *)
  mutable tickers : ticker list;
  (* Earliest [tk_next] over active tickers ([max_int] if none),
     maintained at add/fire/deactivate so the dispatch loop pays one
     compare instead of a list fold per iteration. *)
  mutable tick_due : int;
  (* The active [drain]'s cycle budget ([max_int] outside a budgeted
     run): the inline dispatch fast path must divert to the slow path
     rather than silently run past it. *)
  mutable cur_budget : int;
  mutable switches : int; (* entries dispatched — task switches *)
}

(* Payload side-slots for the hot effects: a constant effect constructor
   allocates nothing at [perform], so the wrappers stash their argument
   here and the handler reads it back synchronously (tasks are
   cooperative and effects are handled before the wrapper returns, so a
   slot is never live across two performs). *)
let pending_int = ref 0
let pending_cond = ref dummy_cond

(* The current-task slot: the task whose code is running, or
   [dummy_task] (which is [killed]) in scheduler context and outside any
   simulation. The dispatcher sets it around every resumption and the
   spawn bootstrap, and resets it afterwards. Together with [cur_eng]
   (set by [drain]) it lets the task-context calls that cannot suspend
   run as plain function calls, and lets the effect handlers be closed
   values instead of per-effect closures over the task. *)
let cur_task = ref dummy_task

type _ Effect.t +=
  | E_consume : unit Effect.t (* cycles in [pending_int] *)
  | E_sleep : unit Effect.t (* cycles in [pending_int] *)
  | E_now : int64 Effect.t
  | E_self : task_id Effect.t
  | E_spawn : (string option * (unit -> unit)) -> task_id Effect.t
  | E_kill : task_id -> unit Effect.t
  | E_yield : unit Effect.t
  | E_wait : unit Effect.t (* cond in [pending_cond] *)
  | E_wait_timeout : unit Effect.t (* cond + cycles in the slots *)
  | E_unwind : unit Effect.t (* killed task only: see [h_unwind] *)

let create () =
  {
    heap = Heap.create ();
    ready = Ready.create ();
    free = dummy_entry;
    seq = 0;
    next_id = 0;
    tasks = Hashtbl.create 64;
    global_time = 0;
    failure_list = [];
    tickers = [];
    tick_due = max_int;
    cur_budget = max_int;
    switches = 0;
  }

(* The engine being drained ([drain] saves and restores it, so a second
   engine drained from inside a task leaves the outer one in place on
   return). Only read while [cur_task] holds a live task. *)
let cur_eng = ref (create ())

let add_ticker t ~period fn =
  if period <= 0 then invalid_arg "Engine.add_ticker: period must be positive";
  let next = t.global_time + period in
  t.tickers <-
    { tk_period = period; tk_next = next; tk_fn = fn; tk_active = true }
    :: t.tickers;
  if next < t.tick_due then t.tick_due <- next

let next_due_ticker t =
  List.fold_left
    (fun acc tk ->
      if not tk.tk_active then acc
      else
        match acc with
        | Some best when best.tk_next <= tk.tk_next -> acc
        | _ -> Some tk)
    None t.tickers

let refresh_tick_due t =
  t.tick_due <-
    List.fold_left
      (fun acc tk -> if tk.tk_active && tk.tk_next < acc then tk.tk_next else acc)
      max_int t.tickers

(* ------------------------------------------------------------------ *)
(* Entry slab                                                          *)
(* ------------------------------------------------------------------ *)

let alloc_entry t ~time ~kind =
  let e = t.free in
  if e == dummy_entry then begin
    let e =
      {
        etime = time;
        eseq = t.seq;
        ekind = kind;
        e_task = dummy_task;
        e_fn = ignore;
        e_flag = false;
        e_due = 0;
        e_free = dummy_entry;
      }
    in
    t.seq <- t.seq + 1;
    e
  end
  else begin
    t.free <- e.e_free;
    e.e_free <- dummy_entry;
    e.etime <- time;
    e.eseq <- t.seq;
    t.seq <- t.seq + 1;
    e.ekind <- kind;
    e.e_flag <- false;
    e
  end

let recycle t e =
  e.ekind <- Ek_cancelled;
  e.e_task <- dummy_task;
  e.e_fn <- ignore;
  e.e_free <- t.free;
  t.free <- e

(* Tasks never schedule in the past (a running task's local clock equals
   the global clock, and cond wakes clamp with [max]), so due-now means
   [etime = global_time] exactly and the ready ring preserves the
   documented (etime, eseq) total order. The [<=] is defensive. *)
let enqueue t e =
  if e.etime <= t.global_time then Ready.push t.ready e
  else Heap.push t.heap e

let sched_resume t time task =
  let e = alloc_entry t ~time ~kind:Ek_resume in
  e.e_task <- task;
  enqueue t e;
  e

let sched_run t time task fn =
  let e = alloc_entry t ~time ~kind:Ek_run in
  e.e_task <- task;
  e.e_fn <- fn;
  enqueue t e

let now t = Int64.of_int t.global_time

let task_name t id =
  match Hashtbl.find_opt t.tasks id with Some task -> task.name | None -> "?"

let is_alive t id =
  match Hashtbl.find_opt t.tasks id with
  | Some task -> task.state <> Finished && task.state <> Dead
  | None -> false

let failures t = List.rev t.failure_list
let task_switches t = t.switches

(* Total task-cycles: every task's lifetime (busy + blocked vtime from
   spawn to its current local clock) summed. Tasks are never removed
   from the table, so a plain fold covers finished and dead tasks too.
   Timed entries ([after]) are not tasks and count nothing.
   This is the denominator the cycle-attribution profile is judged
   against: the phase buckets partition (most of) this quantity. *)
let total_task_cycles t =
  Hashtbl.fold
    (fun _ task acc -> Int64.add acc (Int64.of_int (task.time - task.start)))
    t.tasks 0L

let maxi (a : int) b = if a > b then a else b

(* Claim [c]'s oldest waiter and schedule its resumption at a time not
   before [at]: cancel any pending deadline and hand the wake time to a
   reusable [Ek_resume] entry. [e_flag = true] marks "signalled" for
   [wait_timeout]; plain waits ignore it. A linked waiter is
   always parked (kill unlinks before marking a task dead). *)
let wake_head t c at =
  let task = c.c_head in
  unlink_waiter task;
  cancel_deadline task;
  let e = sched_resume t (maxi at task.time) task in
  e.e_flag <- true

let signal_at t c at = if c.c_head != dummy_task then wake_head t c at

(* Tasks are cooperative and this loop performs no engine effect, so no
   waiter can link itself while it runs. *)
let broadcast_at t c at =
  while c.c_head != dummy_task do
    wake_head t c at
  done

(* Inline dispatch fast path: when the running task's resumption at
   [nt] would be the scheduler's very next pick — nothing due in the
   ready ring, every heap entry strictly later, no ticker deadline to
   cross, budget not hit — parking it and immediately dispatching it is
   equivalent to continuing it in place. Consume chains (cost charging,
   the hottest call in the system) then skip the scheduler and, through
   the direct calls below, the effect itself. The strict [>] on the heap
   top keeps (etime, eseq) order: an equal-time heap entry was scheduled
   earlier and must run first. *)
let[@inline] can_inline t nt =
  t.ready.Ready.len = 0
  && (t.heap.Heap.len = 0 || Heap.top_time t.heap > nt)
  && t.tick_due >= nt
  && nt <= t.cur_budget

(* Closed handlers for the effects that suspend. Each reads the
   performing task from [cur_task] and its engine from [cur_eng] instead
   of capturing them, so [effc] returns one preallocated value and
   handling an effect allocates no closure. The direct calls below
   perform consume, sleep and yield only once [can_inline] has failed (or
   for a killed task), so these handlers never continue in place: they
   park the frame or unwind. *)
let park_frame task k at =
  task.fr_k <- k;
  ignore (sched_resume !cur_eng at task)

let h_consume =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !cur_task in
      if task.killed then Effect.Deep.discontinue k Killed
      else begin
        task.time <- task.time + !pending_int;
        park_frame task k task.time
      end)

let h_sleep =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !cur_task in
      if task.killed then Effect.Deep.discontinue k Killed
      else begin
        task.state <- Blocked;
        park_frame task k (task.time + !pending_int)
      end)

let h_yield =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !cur_task in
      if task.killed then Effect.Deep.discontinue k Killed
      else park_frame task k task.time)

(* A live task signals (or schedules a timed entry) directly, and outside
   any task the perform is unhandled: only a killed task performs
   [E_unwind]. *)
let h_unwind =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      Effect.Deep.discontinue k Killed)

(* Queue [task] as a waiter of the cond in [pending_cond]. *)
let park_waiter task =
  task.state <- Blocked;
  link_waiter !pending_cond task

let h_wait =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !cur_task in
      if task.killed then Effect.Deep.discontinue k Killed
      else begin
        park_waiter task;
        task.fr_k <- k
      end)

let h_wait_timeout =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !cur_task in
      if task.killed then Effect.Deep.discontinue k Killed
      else begin
        park_waiter task;
        task.fr_k <- k;
        (* The deadline rides an ordinary resume entry with
           [e_flag = false] ("timed out"); an earlier signal or kill
           cancels it in O(1) via [fr_deadline]. *)
        task.fr_deadline <-
          sched_resume !cur_eng (task.time + !pending_int) task
      end)

let rec effc :
    type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
  let open Effect.Deep in
  function
  | E_consume -> h_consume
  | E_sleep -> h_sleep
  | E_yield -> h_yield
  | E_wait -> h_wait
  | E_wait_timeout -> h_wait_timeout
  | E_now -> Some (fun k -> continue k (Int64.of_int !cur_task.time))
  | E_self -> Some (fun k -> continue k !cur_task.id)
  | E_spawn (name, body) ->
    Some
      (fun k ->
        let task = !cur_task in
        if task.killed then discontinue k Killed
        else continue k (spawn_internal !cur_eng ?name ~at:task.time body))
  | E_kill victim ->
    Some
      (fun k ->
        let task = !cur_task in
        kill_internal !cur_eng ~at:task.time victim;
        if task.killed then discontinue k Killed else continue k ())
  | E_unwind -> h_unwind
  | _ -> None

and make_fiber : t -> task -> (unit -> unit) -> unit =
 fun t task f ->
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> if task.state <> Dead then task.state <- Finished);
      exnc =
        (fun e ->
          match e with
          | Killed -> task.state <- Dead
          | e ->
            t.failure_list <- (task.id, e) :: t.failure_list;
            task.state <- Dead);
      effc;
    }

and spawn_internal : t -> ?name:string -> at:int -> (unit -> unit) -> task_id =
 fun t ?name ~at body ->
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "task-%d" id
  in
  let task =
    {
      id;
      name;
      start = at;
      time = at;
      state = Runnable;
      killed = false;
      fr_k = no_frame;
      fr_flag = false;
      w_cond = dummy_cond;
      w_prev = dummy_task;
      w_next = dummy_task;
      fr_deadline = dummy_entry;
    }
  in
  Hashtbl.replace t.tasks id task;
  sched_run t at task (fun () ->
      if task.killed || task.state = Dead then task.state <- Dead
      else if !Varan_obs.Trace.enabled then begin
        (* First dispatch slice: from spawn to the first park. *)
        Varan_obs.Trace.begin_span ~ts:(Int64.of_int task.time) ~tid:id name;
        make_fiber t task body;
        Varan_obs.Trace.end_span ~ts:(Int64.of_int task.time) ~tid:id name
      end
      else make_fiber t task body);
  id

and kill_internal t ~at victim_id =
  match Hashtbl.find_opt t.tasks victim_id with
  | None -> ()
  | Some victim ->
    if victim.state <> Finished && victim.state <> Dead then begin
      victim.killed <- true;
      if victim.w_cond != dummy_cond then begin
        (* Parked on a cond with no scheduled resumption: claim the
           waiter, drop any deadline, and schedule the unwind. The
           dispatcher sees [killed] and discontinues the frame. *)
        unlink_waiter victim;
        cancel_deadline victim;
        victim.state <- Dead;
        ignore (sched_resume t (maxi at victim.time) victim)
      end
      (* Otherwise running, queued, or not yet started: the flag is
         checked at the next scheduled resumption / effect point. *)
    end

let spawn t ?name body = spawn_internal t ?name ~at:t.global_time body

let blocked_task_names t =
  Hashtbl.fold
    (fun _ task acc ->
      match task.state with
      | Runnable | Blocked -> task.name :: acc
      | Finished | Dead -> acc)
    t.tasks []

(* Fire the earliest due ticker (the cached [tick_due] told the caller
   one is due before the next entry). The callback may [spawn] tasks at
   the deadline, which land in the ready ring ahead of the pending entry
   and are picked up by the next dispatch iteration. *)
let fire_due_ticker t =
  match next_due_ticker t with
  | None -> t.tick_due <- max_int
  | Some tk ->
    let due = tk.tk_next in
    if due > t.global_time then t.global_time <- due;
    tk.tk_next <- due + tk.tk_period;
    if not (tk.tk_fn ()) then tk.tk_active <- false;
    refresh_tick_due t

(* Run a timed entry's callback on the timer clock, outside any task. *)
let fire_timer t e at =
  let fn = e.e_fn in
  recycle t e;
  timer_task.time <- at;
  cur_task := timer_task;
  fn ();
  cur_task := dummy_task

let drain ?cycle_budget t =
  let budget =
    match cycle_budget with
    | Some b when b < Int64.of_int max_int -> Int64.to_int b
    | _ -> max_int
  in
  t.cur_budget <- budget;
  let heap = t.heap and ready = t.ready in
  let rec loop () =
    (* Recycle cancelled entries at either front without dispatching. *)
    if ready.Ready.len > 0 && (Ready.front ready).ekind == Ek_cancelled then begin
      recycle t (Ready.pop ready);
      loop ()
    end
    else if heap.Heap.len > 0 && heap.Heap.a.(0).ekind == Ek_cancelled then begin
      recycle t (Heap.pop_top heap);
      loop ()
    end
    else begin
      let have_r = ready.Ready.len > 0 and have_h = heap.Heap.len > 0 in
      if have_r || have_h then begin
        (* The ready ring holds due-now entries; the heap can also carry
           entries at the current timestamp (pushed as future, reached
           since), so ties fall back to the full (etime, eseq) compare. *)
        let from_heap =
          have_h && ((not have_r) || Heap.top_before heap (Ready.front ready))
        in
        if from_heap && t.tick_due < Heap.top_time heap then begin
          (* Virtual time is about to jump past a ticker's deadline:
             fire it first, then re-select. *)
          fire_due_ticker t;
          loop ()
        end
        else begin
          let e = if from_heap then Heap.pop_top heap else Ready.pop ready in
          (* Liveness watchdog: a simulation that schedules work past the
             budget is considered hung (livelock, missed wakeup, runaway
             retry loop) and aborted rather than left spinning. *)
          if e.etime > budget then begin
            recycle t e;
            raise (Budget_exceeded (Int64.of_int t.global_time))
          end;
          if e.etime > t.global_time then t.global_time <- e.etime
          else if
              e.etime < t.global_time
              && (e.ekind == Ek_resume || e.ekind == Ek_timer)
              && !Varan_obs.Profile.enabled
            then
            (* The entry was due at [etime] but a ticker (or an earlier
               same-dispatch entry) already pushed virtual time past it:
               the task (or armed timer) resumes late through no fault of
               its own. This is the scheduler-induced lag the profile
               reports as sched-dispatch. An unarmed timer sits at the
               current time, like a spawn bootstrap. *)
            Varan_obs.Profile.add Varan_obs.Profile.sched_dispatch
              (Int64.of_int (t.global_time - e.etime));
          t.switches <- t.switches + 1;
          (match e.ekind with
          | Ek_resume ->
            let task = e.e_task and etime = e.etime and flag = e.e_flag in
            if task.fr_deadline == e then task.fr_deadline <- dummy_entry;
            recycle t e;
            (* A still-linked waiter at resume time means the deadline
               fired before any signal: claim it. *)
            if task.w_cond != dummy_cond then unlink_waiter task;
            cur_task := task;
            let k = task.fr_k in
            (* [no_frame]: stale, ownership already transferred. *)
            if k != no_frame then begin
              task.fr_k <- no_frame;
              if task.killed then Effect.Deep.discontinue k Killed
              else begin
                task.state <- Runnable;
                if etime > task.time then task.time <- etime;
                task.fr_flag <- flag;
                if !Varan_obs.Trace.enabled then begin
                  (* One span per dispatch slice, on the engine track
                     (pid 0) keyed by task id. Begin at the resume time,
                     end at the task's local clock when it parks again —
                     so the span covers exactly the vtime the slice
                     consumed and excludes the wait that follows. Inline
                     fast-path switches stay inside the enclosing span,
                     which keeps per-track nesting trivially correct. *)
                  Varan_obs.Trace.begin_span ~ts:(Int64.of_int task.time)
                    ~tid:task.id task.name;
                  Effect.Deep.continue k ();
                  Varan_obs.Trace.end_span ~ts:(Int64.of_int task.time)
                    ~tid:task.id task.name
                end
                else Effect.Deep.continue k ()
              end
            end;
            cur_task := dummy_task
          | Ek_run ->
            let fn = e.e_fn in
            cur_task := e.e_task;
            recycle t e;
            fn ();
            cur_task := dummy_task
          | Ek_timer ->
            if e.e_flag then fire_timer t e e.etime
            else begin
              (* The scheduling slot, where a spawned task's bootstrap
                 would run before sleeping the delay. *)
              let due = e.e_due in
              if can_inline t due then begin
                t.global_time <- due;
                t.switches <- t.switches + 1;
                fire_timer t e due
              end
              else begin
                e.etime <- due;
                e.eseq <- t.seq;
                t.seq <- t.seq + 1;
                e.e_flag <- true;
                enqueue t e
              end
            end
          | Ek_cancelled -> recycle t e (* unreachable: pruned above *));
          loop ()
        end
      end
    end
    (* tickers never outlive the work they monitor *)
  in
  (* The slots are saved once per drain, not per dispatch: a drain nested
     in a task (a second engine run from inside the first) hands both
     back to the outer task on return, exceptions included. *)
  let outer_task = !cur_task and outer_eng = !cur_eng in
  cur_task := dummy_task;
  cur_eng := t;
  match loop () with
  | () ->
    cur_task := outer_task;
    cur_eng := outer_eng
  | exception e ->
    cur_task := outer_task;
    cur_eng := outer_eng;
    raise e

let run ?cycle_budget t =
  drain ?cycle_budget t;
  let leftover = blocked_task_names t in
  if leftover <> [] then raise (Deadlock (List.sort compare leftover))

let run_until_quiescent ?cycle_budget t = drain ?cycle_budget t

(* Task-context wrappers. With a live task in the slot, the calls that
   cannot suspend are plain function calls: the clock reads, cond
   signals, and consume/sleep/yield when [can_inline] says the task
   would be the scheduler's very next pick anyway. Every other case —
   the task must park, it was killed, or no task is running — performs
   the effect as before; the wrappers stash the payload in the side
   slots so the perform itself allocates nothing. [dummy_task] is
   [killed], so one test covers both "no task" and "killed". *)
let[@inline] advance_inline task nt =
  let t = !cur_eng in
  if can_inline t nt then begin
    task.time <- nt;
    t.global_time <- nt;
    t.switches <- t.switches + 1;
    true
  end
  else false

let consume n =
  if n > 0 then begin
    let task = !cur_task in
    if task.killed || not (advance_inline task (task.time + n)) then begin
      pending_int := n;
      Effect.perform E_consume
    end
  end

let sleep n =
  let n = maxi n 0 in
  let task = !cur_task in
  if task.killed || not (advance_inline task (task.time + n)) then begin
    pending_int := n;
    Effect.perform E_sleep
  end

let clock () =
  let task = !cur_task in
  if task.killed then Int64.to_int (Effect.perform E_now) else task.time

let now_cycles () =
  let task = !cur_task in
  if task.killed then Effect.perform E_now else Int64.of_int task.time

let self () =
  let task = !cur_task in
  if task.killed then Effect.perform E_self else task.id

let spawn_here ?name body = Effect.perform (E_spawn (name, body))

(* The dispatch slots of a task spawned here that sleeps [d] and then
   calls [fn], without the task: an unarmed entry at the caller's
   (time, seq) that either fires inline or re-arms at time + d with a
   fresh seq, as that task's sleep would park. *)
let after d fn =
  let task = !cur_task in
  if task.killed then Effect.perform E_unwind
  else begin
    let t = !cur_eng in
    let e = alloc_entry t ~time:task.time ~kind:Ek_timer in
    e.e_fn <- fn;
    e.e_due <- task.time + maxi d 0;
    enqueue t e
  end

let kill t id = kill_internal t ~at:t.global_time id
let kill_here id = Effect.perform (E_kill id)

let yield () =
  let task = !cur_task in
  if task.killed || not (advance_inline task task.time) then
    Effect.perform E_yield

module Cond = struct
  type nonrec cond = cond

  let create name =
    { c_name = name; c_head = dummy_task; c_tail = dummy_task; c_nwaiters = 0 }

  let wait c =
    pending_cond := c;
    Effect.perform E_wait

  (* The dispatcher sets the resumed task's [fr_flag] before it
     continues the frame, and the slot holds that task on return. *)
  let wait_timeout c cycles =
    pending_cond := c;
    pending_int := cycles;
    Effect.perform E_wait_timeout;
    !cur_task.fr_flag

  let signal c =
    let task = !cur_task in
    if task.killed then Effect.perform E_unwind
    else signal_at !cur_eng c task.time

  let broadcast c =
    let task = !cur_task in
    if task.killed then Effect.perform E_unwind
    else broadcast_at !cur_eng c task.time

  let waiters c = c.c_nwaiters
  let has_waiters c = c.c_nwaiters > 0

  (* The targeted-wakeup primitive: a no-op (no engine effect at all) when
     nobody is parked, so uncontended publishes and consumes pay nothing.
     Checking [c_nwaiters] outside an effect is sound because tasks are
     cooperative: no waiter can register between this test and the
     broadcast. *)
  let broadcast_if_waiting c = if c.c_nwaiters > 0 then broadcast c

  let _name c = c.c_name
end
