module E = Varan_sim.Engine
module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event
module Prof = Varan_sim.Prof
module Phase = Varan_obs.Profile
module Trace = Varan_obs.Trace

type config = {
  batch_max : int;
  window : int;
  rto : int;
  rto_max : int;
  header_bytes : int;
  serialize_cost : int;
  publish_cost : int;
}

let default_config =
  {
    batch_max = 16;
    window = 4;
    rto = 20_000;
    rto_max = 320_000;
    header_bytes = 32;
    serialize_cost = 80;
    publish_cost = 120;
  }

type frame =
  | Data of {
      epoch : int;
      bseq : int;  (* per-epoch batch sequence, from 0 *)
      first_seq : int;  (* global stream seq of events.(0) *)
      events : Event.t array;
      checksum : int;
    }
  | Ack of { epoch : int; upto : int }  (* all bseq <= upto received *)

type pending = {
  p_epoch : int;
  p_bseq : int;
  p_first_seq : int;
  p_events : Event.t array;
  p_checksum : int;
  p_bytes : int;
  mutable p_acked : bool;
}

type t = {
  cfg : config;
  link : frame Link.t;
  local_node : Node.t;
  remote_node : Node.t;
  local : Event.t Ring.t;
  mutable mirror : Event.t Ring.t;
  mutable local_c : Event.t Ring.consumer option;
  materialize : Event.t -> Event.t;
  discard : Event.t -> unit;
  must_replicate : Event.t -> bool;
  (* sender *)
  mutable epoch : int;
  mutable next_bseq : int;
  mutable send_seq : int;  (* global seq of the next event to drain *)
  pending : (int, pending) Hashtbl.t;  (* bseq -> unacked batch *)
  mutable in_flight : int;
  mutable stall_anchor : int64;  (* last window progress *)
  window_cond : E.Cond.cond;
  mutable detached : bool;
  mutable heal_fired : bool;
  mutable on_heal : unit -> unit;
  (* receiver *)
  mutable r_expected : int;  (* next bseq expected in the current epoch *)
  mutable r_next_seq : int;  (* next global seq to republish *)
  (* stats *)
  mutable s_batches : int;
  mutable s_events : int;
  mutable s_retransmits : int;
  mutable s_acks : int;
  mutable s_dup_acks : int;
  mutable s_checksum_failures : int;
  mutable s_wire_bytes : int;
  mutable s_saved : int;
  mutable s_detaches : int;
  mutable s_heals : int;
}

(* A cheap structural checksum over a batch: enough to let the receiver
   verify framing survived the link, deterministic across runs. *)
let checksum_events (evs : Event.t array) =
  let h = ref 0x9E3779B9 in
  let mix v = h := (!h lxor v) * 0x01000193 land 0x3FFFFFFF in
  Array.iter
    (fun (e : Event.t) ->
      mix
        (match e.Event.kind with
        | Event.Ev_syscall -> 1
        | Event.Ev_signal -> 2
        | Event.Ev_fork -> 3
        | Event.Ev_exit -> 4);
      mix e.Event.sysno;
      mix e.Event.tid;
      mix e.Event.ret;
      mix e.Event.clock;
      Array.iter mix e.Event.args;
      match e.Event.inline_out with
      | Some b -> mix (Hashtbl.hash b)
      | None -> ())
    evs;
  !h

let ack_bytes = 16

(* Wire size of a batch under selective replication: every event ships
   its 64-byte header; payload bytes ride along only when the remote
   variant cannot reproduce them locally. *)
let frame_bytes t (evs : Event.t array) =
  let saved = ref 0 in
  let bytes =
    Array.fold_left
      (fun acc (e : Event.t) ->
        let pl =
          match e.Event.inline_out with Some b -> Bytes.length b | None -> 0
        in
        if pl = 0 || t.must_replicate e then acc + Event.event_bytes + pl
        else begin
          saved := !saved + pl;
          acc + Event.event_bytes
        end)
      t.cfg.header_bytes evs
  in
  (bytes, !saved)

let send_data t (p : pending) =
  t.s_wire_bytes <- t.s_wire_bytes + p.p_bytes;
  Link.send t.link ~dir:0 ~bytes:p.p_bytes
    (Data
       {
         epoch = p.p_epoch;
         bseq = p.p_bseq;
         first_seq = p.p_first_seq;
         events = p.p_events;
         checksum = p.p_checksum;
       })

let rec retransmit_timer t (p : pending) rto =
  E.sleep rto;
  if (not p.p_acked) && p.p_epoch = t.epoch then begin
    t.s_retransmits <- t.s_retransmits + 1;
    send_data t p;
    retransmit_timer t p (min (rto * 2) t.cfg.rto_max)
  end

let ship_batch t evs =
  let reg = Prof.region_enter () in
  let evs = Array.of_list (List.map t.materialize evs) in
  let n = Array.length evs in
  E.consume (t.cfg.serialize_cost * n);
  let bytes, saved = frame_bytes t evs in
  t.s_saved <- t.s_saved + saved;
  let p =
    {
      p_epoch = t.epoch;
      p_bseq = t.next_bseq;
      p_first_seq = t.send_seq;
      p_events = evs;
      p_checksum = checksum_events evs;
      p_bytes = bytes;
      p_acked = false;
    }
  in
  t.next_bseq <- t.next_bseq + 1;
  t.send_seq <- t.send_seq + n;
  Hashtbl.replace t.pending p.p_bseq p;
  if t.in_flight = 0 then t.stall_anchor <- E.now_cycles ();
  t.in_flight <- t.in_flight + 1;
  t.s_batches <- t.s_batches + 1;
  t.s_events <- t.s_events + n;
  send_data t p;
  Prof.region_exit Phase.bridge_wire reg;
  ignore
    (Node.spawn_here t.local_node ~name:"bridge-rto" (fun () ->
         retransmit_timer t p t.cfg.rto))

(* The sender: one task per epoch. It exits when detached or superseded
   by a newer epoch; [detach] pokes the ring and the window cond so a
   parked sender re-checks and leaves before touching its dead handle. *)
let rec sender_loop t my_epoch c =
  if t.detached || t.epoch <> my_epoch then ()
  else if t.in_flight >= t.cfg.window then begin
    (* Window backpressure is wire time: the sender is throttled by
       unacked batches in flight, not by a lack of local events. *)
    let t0 = Prof.mark () in
    E.Cond.wait t.window_cond;
    Prof.charge_wait Phase.bridge_wire t0;
    sender_loop t my_epoch c
  end
  else
    match Ring.try_consume_batch_h c ~max:t.cfg.batch_max with
    | [] ->
      Ring.wait_activity t.local;
      sender_loop t my_epoch c
    | evs ->
      ship_batch t evs;
      sender_loop t my_epoch c

let spawn_sender t =
  match t.local_c with
  | None -> ()
  | Some c ->
    let ep = t.epoch in
    ignore
      (Node.spawn t.local_node ~name:"bridge-send" (fun () ->
           sender_loop t ep c))

let send_ack t ~epoch ~upto =
  t.s_wire_bytes <- t.s_wire_bytes + ack_bytes;
  Link.send t.link ~dir:1 ~bytes:ack_bytes (Ack { epoch; upto })

(* The receiver never blocks the ack path on mirror backpressure: it
   acks on receipt, then republishes. A slow remote follower therefore
   stalls the receiver task (and eventually the window), but an
   individually-stuck follower is the per-follower watchdog's problem —
   it fires before the link-degradation threshold does. *)
let receive_data t ~epoch ~bseq ~first_seq ~events ~checksum =
  if checksum_events events <> checksum then
    t.s_checksum_failures <- t.s_checksum_failures + 1
  else if epoch <> t.epoch then
    (* a dead epoch's retransmit arriving after a reattach: its events
       were already recovered from the tape; never let them near the new
       mirror *)
    t.s_dup_acks <- t.s_dup_acks + 1
  else if bseq <> t.r_expected then
    (* duplicate or out-of-order: drop and restate the cumulative ack *)
    send_ack t ~epoch ~upto:(t.r_expected - 1)
  else begin
    assert (first_seq = t.r_next_seq);
    t.r_expected <- bseq + 1;
    t.r_next_seq <- first_seq + Array.length events;
    send_ack t ~epoch ~upto:bseq;
    (* Pin the mirror this batch was accepted into: the per-event publish
       cost yields, and a reattach racing that loop would otherwise leak
       the batch's tail into the NEXT epoch's mirror — a phantom event
       above the true stream head. *)
    let mirror = t.mirror in
    let reg = Prof.region_enter () in
    Array.iter
      (fun e ->
        E.consume t.cfg.publish_cost;
        Ring.publish mirror e)
      events;
    Prof.region_exit Phase.bridge_wire reg
  end

let rec recv_loop t =
  (match Link.recv t.link ~dir:0 with
  | Data { epoch; bseq; first_seq; events; checksum } ->
    receive_data t ~epoch ~bseq ~first_seq ~events ~checksum
  | Ack _ -> ());
  recv_loop t

let window_progress t ~epoch ~upto =
  if epoch <> t.epoch then t.s_dup_acks <- t.s_dup_acks + 1
  else begin
    let advanced = ref false in
    Hashtbl.iter
      (fun _ p -> if (not p.p_acked) && p.p_bseq <= upto then advanced := true)
      t.pending;
    if !advanced then begin
      Hashtbl.filter_map_inplace
        (fun _ p ->
          if p.p_bseq <= upto then begin
            p.p_acked <- true;
            t.in_flight <- t.in_flight - 1;
            None
          end
          else Some p)
        t.pending;
      t.stall_anchor <- E.now_cycles ();
      E.Cond.broadcast_if_waiting t.window_cond
    end
    else t.s_dup_acks <- t.s_dup_acks + 1
  end

let rec ack_loop t =
  (match Link.recv t.link ~dir:1 with
  | Ack { epoch; upto } ->
    t.s_acks <- t.s_acks + 1;
    if t.detached then begin
      if not t.heal_fired then begin
        t.heal_fired <- true;
        t.on_heal ()
      end
    end
    else window_progress t ~epoch ~upto
  | Data _ -> ());
  ack_loop t

let create ~local_node ~remote_node ~local ~mirror ?(cfg = default_config)
    ?latency ?cycles_per_kb ?faults ~materialize ~discard ~must_replicate () =
  let link =
    Link.create ~a:local_node ~b:remote_node ?latency ?cycles_per_kb ?faults
      "bridge"
  in
  let t =
    {
      cfg;
      link;
      local_node;
      remote_node;
      local;
      mirror;
      local_c = Some (Ring.subscribe local);
      materialize;
      discard;
      must_replicate;
      epoch = 0;
      next_bseq = 0;
      send_seq = 0;
      pending = Hashtbl.create 16;
      in_flight = 0;
      stall_anchor = 0L;
      window_cond = E.Cond.create "bridge-window";
      detached = false;
      heal_fired = false;
      on_heal = ignore;
      r_expected = 0;
      r_next_seq = 0;
      s_batches = 0;
      s_events = 0;
      s_retransmits = 0;
      s_acks = 0;
      s_dup_acks = 0;
      s_checksum_failures = 0;
      s_wire_bytes = 0;
      s_saved = 0;
      s_detaches = 0;
      s_heals = 0;
    }
  in
  spawn_sender t;
  ignore (Node.spawn remote_node ~name:"bridge-recv" (fun () -> recv_loop t));
  ignore (Node.spawn local_node ~name:"bridge-ack" (fun () -> ack_loop t));
  t

let set_on_heal t f = t.on_heal <- f

let detach t =
  if not t.detached then begin
    t.detached <- true;
    t.heal_fired <- false;
    t.s_detaches <- t.s_detaches + 1;
    if !Trace.enabled then
      Trace.instant ~ts:(E.now_cycles ()) ~tid:0 "bridge.detach";
    (match t.local_c with
    | Some c ->
      List.iter t.discard (Ring.unread_h c);
      Ring.unsubscribe c;
      t.local_c <- None
    | None -> ());
    (* wake a parked sender so it observes [detached] and exits *)
    Ring.poke t.local;
    E.Cond.broadcast_if_waiting t.window_cond
  end

(* Stop probing for good: bump the epoch so every retransmit timer dies
   at its next wakeup, without reattaching. A degraded session (or one
   whose remote followers are all dead) has no rejoin to probe for, and
   an immortal probe would keep the engine from ever going quiescent. *)
let abandon t =
  if not t.detached then detach t;
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.pending;
  t.in_flight <- 0

let reattach t ~mirror ~remote_base =
  if !Trace.enabled then
    Trace.instant ~ts:(E.now_cycles ()) ~tid:0
      ~args:(Printf.sprintf "\"epoch\":%d" (t.epoch + 1))
      "bridge.reattach";
  t.epoch <- t.epoch + 1;
  t.mirror <- mirror;
  t.next_bseq <- 0;
  t.send_seq <- remote_base;
  t.r_expected <- 0;
  t.r_next_seq <- remote_base;
  Hashtbl.reset t.pending;
  t.in_flight <- 0;
  t.detached <- false;
  t.heal_fired <- false;
  t.s_heals <- t.s_heals + 1;
  t.local_c <- Some (Ring.subscribe t.local);
  spawn_sender t

let detached t = t.detached

let stalled_since t = if t.in_flight = 0 then None else Some t.stall_anchor

type stats = {
  batches : int;
  events_forwarded : int;
  retransmits : int;
  acks : int;
  dup_acks : int;
  checksum_failures : int;
  bytes_on_wire : int;
  bytes_saved : int;
  detaches : int;
  heals : int;
}

let stats t =
  {
    batches = t.s_batches;
    events_forwarded = t.s_events;
    retransmits = t.s_retransmits;
    acks = t.s_acks;
    dup_acks = t.s_dup_acks;
    checksum_failures = t.s_checksum_failures;
    bytes_on_wire = t.s_wire_bytes;
    bytes_saved = t.s_saved;
    detaches = t.s_detaches;
    heals = t.s_heals;
  }

let link_stats t = Link.stats t.link

let pp_stats ppf s =
  Format.fprintf ppf
    "batches=%d events=%d retrans=%d acks=%d dup=%d wire=%dB saved=%dB \
     detach=%d heal=%d"
    s.batches s.events_forwarded s.retransmits s.acks s.dup_acks
    s.bytes_on_wire s.bytes_saved s.detaches s.heals
