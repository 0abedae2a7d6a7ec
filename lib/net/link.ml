module E = Varan_sim.Engine

type fault = Partition of int | Delay of int | Drop | Duplicate | Reorder

(* One direction of travel: an in-order arrival horizon, the delivered
   frames, and at most one frame held back by a pending Reorder. *)
type 'a dir = {
  src : Node.t;
  dst : Node.t;
  mutable last_arrival : int64;
  inbox : 'a Queue.t;
  arrived : E.Cond.cond;
  mutable held : 'a option;  (* a Reorder victim awaiting the next frame *)
  mutable held_flushed : bool;
      (* the fallback flush beat the next frame to it *)
}

type 'a t = {
  name : string;
  latency : int;
  cycles_per_kb : int;
  faults : seq:int -> fault list;
  dirs : 'a dir array;  (* 0 = a->b, 1 = b->a *)
  mutable next_seq : int;  (* link-global: both directions share it *)
  mutable partition_until : int64;
  (* stats *)
  mutable s_sent : int;
  mutable s_delivered : int;
  mutable s_lost : int;
  mutable s_duplicated : int;
  mutable s_reordered : int;
  mutable s_bytes : int;
  mutable s_partitions : int;
}

let no_faults ~seq:_ = []

let create ~a ~b ?(latency = 2000) ?(cycles_per_kb = 800) ?(faults = no_faults)
    name =
  let mk src dst =
    {
      src;
      dst;
      last_arrival = 0L;
      inbox = Queue.create ();
      arrived = E.Cond.create (name ^ "/" ^ Node.name src ^ ">" ^ Node.name dst);
      held = None;
      held_flushed = false;
    }
  in
  {
    name;
    latency;
    cycles_per_kb;
    faults;
    dirs = [| mk a b; mk b a |];
    next_seq = 0;
    partition_until = 0L;
    s_sent = 0;
    s_delivered = 0;
    s_lost = 0;
    s_duplicated = 0;
    s_reordered = 0;
    s_bytes = 0;
    s_partitions = 0;
  }

let partitioned t = E.now_cycles () < t.partition_until

(* Park a delivery task until [arrival], then hand the frame to the
   sink. Two sleepers with distinct deadlines wake in deadline order
   (ties break by spawn order), so per-direction arrival order is the
   queue order. *)
let deliver t d msg ~arrival =
  let now = E.now_cycles () in
  let wait = Int64.to_int (Int64.sub arrival now) in
  ignore
    (Node.spawn_here d.dst ~name:(t.name ^ "-rx") (fun () ->
         if wait > 0 then E.sleep wait;
         Queue.push msg d.inbox;
         t.s_delivered <- t.s_delivered + 1;
         E.Cond.broadcast_if_waiting d.arrived))

let schedule t d msg ~bytes ~extra =
  let now = E.now_cycles () in
  let xmit = t.latency + (bytes * t.cycles_per_kb / 1024) + extra in
  let arrival =
    let inorder = Int64.add d.last_arrival 1L in
    let earliest = Int64.add now (Int64.of_int (max 1 xmit)) in
    if Int64.compare inorder earliest > 0 then inorder else earliest
  in
  d.last_arrival <- arrival;
  Node.note_rx d.dst bytes;
  deliver t d msg ~arrival;
  arrival

(* If a Reorder held a frame back, release it one tick behind the frame
   that just overtook it. *)
let release_held t d ~after =
  match d.held with
  | None -> ()
  | Some held ->
    d.held <- None;
    deliver t d held ~arrival:(Int64.add after 1L)

let send t ~dir ~bytes msg =
  let d = t.dirs.(dir) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.s_sent <- t.s_sent + 1;
  t.s_bytes <- t.s_bytes + bytes;
  Node.note_tx d.src bytes;
  let now = E.now_cycles () in
  let extra = ref 0 in
  let drop = ref (Int64.compare now t.partition_until < 0) in
  let dup = ref false in
  let reorder = ref false in
  List.iter
    (fun f ->
      match f with
      | Partition cycles ->
        t.s_partitions <- t.s_partitions + 1;
        let until = Int64.add now (Int64.of_int cycles) in
        if Int64.compare until t.partition_until > 0 then
          t.partition_until <- until;
        (* the frame that trips the cut is the first casualty *)
        drop := true
      | Delay cycles -> extra := !extra + cycles
      | Drop -> drop := true
      | Duplicate -> dup := true
      | Reorder -> reorder := true)
    (t.faults ~seq);
  if !drop then t.s_lost <- t.s_lost + 1
  else if !reorder && d.held = None then begin
    t.s_reordered <- t.s_reordered + 1;
    d.held <- Some msg;
    d.held_flushed <- false;
    (* Fallback: if no later frame ever overtakes it, flush after a
       generous horizon so a Reorder can delay but never lose a frame. *)
    let flush_after = (8 * t.latency) + (bytes * t.cycles_per_kb / 1024) + 4096 in
    ignore
      (Node.spawn_here d.dst ~name:(t.name ^ "-flush") (fun () ->
           E.sleep flush_after;
           match d.held with
           | Some held ->
             d.held <- None;
             d.held_flushed <- true;
             Queue.push held d.inbox;
             t.s_delivered <- t.s_delivered + 1;
             E.Cond.broadcast_if_waiting d.arrived
           | None -> ()))
  end
  else begin
    let arrival = schedule t d msg ~bytes ~extra:!extra in
    release_held t d ~after:arrival;
    if !dup then begin
      t.s_duplicated <- t.s_duplicated + 1;
      deliver t d msg ~arrival:(Int64.add arrival 1L)
    end
  end

let rec recv t ~dir =
  let d = t.dirs.(dir) in
  match Queue.take_opt d.inbox with
  | Some m -> m
  | None ->
    E.Cond.wait d.arrived;
    recv t ~dir

type stats = {
  frames_sent : int;
  frames_delivered : int;
  frames_lost : int;
  frames_duplicated : int;
  frames_reordered : int;
  bytes_sent : int;
  partitions : int;
}

let stats t =
  {
    frames_sent = t.s_sent;
    frames_delivered = t.s_delivered;
    frames_lost = t.s_lost;
    frames_duplicated = t.s_duplicated;
    frames_reordered = t.s_reordered;
    bytes_sent = t.s_bytes;
    partitions = t.s_partitions;
  }
