(* Per-tid event lanes: a sharded sequencer demultiplexing one ring
   consumer into per-thread FIFO queues, so sibling threads of a
   multi-threaded follower replay their own syscalls without contending
   on the ring head. Events the predicate marks as *sync* are ordering
   barriers: they are routed only once every previously routed event has
   been consumed, and no further event is routed until the sync event
   itself is consumed — this is how the leader's global lock-acquisition
   order (futex results, fd grants, fork/exit) is preserved even though
   ordinary events replay concurrently per thread. *)

type t = {
  consumer : Event.t Ring.consumer;
  is_sync : Event.t -> bool;
  on_route : Event.t -> unit;
      (* runs after the event is queued in its lane, once per event, in
         stream order — the session layer's demux-time clock check. *)
  capacity : int;  (* max routed-but-unconsumed events *)
  mutable lanes : Event.t Queue.t array;  (* indexed by tid, grown on demand *)
  mutable outstanding : int;
  mutable barrier : bool;
  mutable sync_ev : Event.t option;
      (* the routed sync event holding the barrier; matched by physical
         equality on consume. *)
}

let create ~consumer ~is_sync ~on_route ~capacity =
  if capacity < 1 then invalid_arg "Lanes.create: capacity < 1";
  {
    consumer;
    is_sync;
    on_route;
    capacity;
    lanes = Array.init 8 (fun _ -> Queue.create ());
    outstanding = 0;
    barrier = false;
    sync_ev = None;
  }

let lane t tid =
  if tid < 0 then invalid_arg "Lanes: negative tid";
  let n = Array.length t.lanes in
  if tid >= n then begin
    let n' = ref (n * 2) in
    while tid >= !n' do n' := !n' * 2 done;
    let grown = Array.init !n' (fun i ->
        if i < n then t.lanes.(i) else Queue.create ())
    in
    t.lanes <- grown
  end;
  t.lanes.(tid)

let route t e =
  let q = lane t e.Event.tid in
  Queue.push e q;
  t.outstanding <- t.outstanding + 1;
  (* Demux-time hook runs after queueing: if it raises (divergence), the
     event is already in a lane and teardown's [drain] still reaches its
     payload. *)
  t.on_route e

let pump t =
  let continue = ref true in
  while !continue do
    if t.barrier || t.outstanding >= t.capacity then continue := false
    else
      match Ring.peek_h t.consumer with
      | None -> continue := false
      | Some e ->
        if t.is_sync e && t.outstanding > 0 then
          (* A sync event must see every earlier routed event consumed
             before it enters a lane; leave it in the ring. *)
          continue := false
        else begin
          (match Ring.try_consume_h t.consumer with
          | Some e' -> assert (e' == e)  (* single demuxer per consumer *)
          | None -> assert false);
          if t.is_sync e then begin
            t.barrier <- true;
            t.sync_ev <- Some e;
            route t e;
            continue := false
          end
          else route t e
        end
  done

let peek t ~tid =
  if tid < 0 || tid >= Array.length t.lanes then None
  else Queue.peek_opt t.lanes.(tid)

let advance t ~tid =
  let q = lane t tid in
  match Queue.take_opt q with
  | None -> invalid_arg "Lanes.advance: empty lane"
  | Some e ->
    let was_at_cap = t.outstanding >= t.capacity in
    t.outstanding <- t.outstanding - 1;
    let cleared_barrier =
      match t.sync_ev with
      | Some s when s == e ->
        t.barrier <- false;
        t.sync_ev <- None;
        true
      | _ -> false
    in
    (* Pumping can newly make progress when the barrier lifted, when we
       dropped back below capacity, or when the lanes emptied (a sync
       event parked in the ring becomes routable). *)
    cleared_barrier || was_at_cap || t.outstanding = 0

let is_empty t = t.outstanding = 0
let outstanding t = t.outstanding

let drain t =
  let acc = ref [] in
  Array.iter
    (fun q ->
      while not (Queue.is_empty q) do
        acc := Queue.pop q :: !acc
      done)
    t.lanes;
  t.outstanding <- 0;
  t.barrier <- false;
  t.sync_ev <- None;
  List.rev !acc

