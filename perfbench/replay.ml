(* The layer replay pass: each layer's public hot functions, timed in
   isolation at the shapes the workload produced (Common.shapes: ring
   consumer counts, request, reply and pooled payload sizes, the image
   profiles it launched). Each figure is the median of several timed
   batches, in wall nanoseconds per call.

   The ring driver follows the ring-cycle driver of the repository's
   Bechamel micro-benchmarks: 256 events published into a 256-slot ring
   and drained by every consumer inside a simulation engine, so task
   switches are part of the measured unit, as on the streaming hot
   path. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event
module Pool = Varan_shmem.Pool
module Proto = Varan_workloads.Proto

let batches = 7

(* Median wall ns per call of [f], which performs [calls] calls. *)
let time ~calls f =
  Common.median
    (List.init batches (fun _ ->
         let t0 = Wall.now () in
         f ();
         Wall.ns_since t0 /. float_of_int calls))

(* Engine: [tasks] tasks yielding round-robin; one task switch per yield. *)
let ns_per_switch () =
  let tasks = 16 and yields = 2_000 in
  let switches = ref 0 in
  let ns =
    time ~calls:(tasks * yields) (fun () ->
        let eng = E.create () in
        for _ = 1 to tasks do
          ignore (E.spawn eng (fun () -> for _ = 1 to yields do E.yield () done))
        done;
        E.run eng;
        switches := E.task_switches eng)
  in
  ns *. float_of_int (tasks * yields) /. float_of_int (max 1 !switches)

(* Kernel: a framed request and its framed reply over a socket pair
   through Api.direct, the path clients and native servers take. One
   round trip is six syscalls: a write and two reads on each side. *)
let syscalls_per_roundtrip = 6

let ns_per_socket_roundtrip ~request_bytes ~reply_bytes =
  let n = 2_000 in
  let request = Bytes.make request_bytes 'q' in
  let reply = Bytes.make reply_bytes 'r' in
  time ~calls:n (fun () ->
      let eng = E.create () in
      let k = K.create ~link_latency:3_500 eng in
      let proc = K.new_proc k "replay" in
      let api = Api.direct k proc in
      let client =
        E.spawn eng (fun () ->
            match Api.socketpair api with
            | Error _ -> failwith "replay: socketpair"
            | Ok (a, b) ->
              let server =
                E.spawn_here (fun () ->
                    for _ = 1 to n do
                      match Proto.recv_msg api b with
                      | Ok (Some _) -> ignore (Proto.send_msg api b reply)
                      | _ -> ()
                    done)
              in
              K.register_task k proc server;
              for _ = 1 to n do
                ignore (Proto.send_msg api a request);
                ignore (Proto.recv_msg api a)
              done)
      in
      K.register_task k proc client;
      E.run eng)

(* Kernel VFS: re-reading the 4 kB doc-root page the web servers serve. *)
let ns_per_file_read () =
  let n = 5_000 in
  let w = Varan_workloads.Catalog.lighttpd_wrk in
  time ~calls:n (fun () ->
      let eng = E.create () in
      let k = K.create eng in
      w.Varan_workloads.Workload.setup_fs k;
      let proc = K.new_proc k "replay" in
      let api = Api.direct k proc in
      let t =
        E.spawn eng (fun () ->
            match Api.openf api "/www/index.html" 0 with
            | Error _ -> failwith "replay: open doc root"
            | Ok fd ->
              for _ = 1 to n do
                ignore (Api.lseek api fd 0 0);
                ignore (Api.read api fd 4096)
              done)
      in
      K.register_task k proc t;
      E.run eng)

(* Ring: publish 256 events and drain them with [consumers] consumers in
   batches of up to 64, as the session's follower loops do; optionally
   with the trace oracle's tap installed. *)
let ring_cycle ?oracle ~consumers () =
  let eng = E.create () in
  let ring = Ring.create ~size:256 "replay" in
  (match oracle with
  | Some o -> Varan_trace.Oracle.attach_ring o ~tuple:0 ring
  | None -> ());
  let hs = Array.init consumers (fun _ -> Ring.subscribe ring) in
  Array.iter
    (fun h ->
      ignore
        (E.spawn eng (fun () ->
             let left = ref 256 in
             while !left > 0 do
               left := !left - List.length (Ring.consume_batch_h h ~max:64)
             done)))
    hs;
  ignore
    (E.spawn eng (fun () ->
         for i = 1 to 256 do
           Ring.publish ring (Event.make ~clock:i ~ret:i ~args:[| i |] (i land 255))
         done));
  E.run eng

let ns_per_event ~consumers =
  let cycles = 40 in
  time ~calls:(cycles * 256) (fun () ->
      for _ = 1 to cycles do ring_cycle ~consumers () done)

(* The oracle's share of an event: the same ring cycle with its tap
   installed, minus the plain cycle. *)
let oracle_ns_per_event ~consumers =
  let cycles = 40 in
  let tapped =
    time ~calls:(cycles * 256) (fun () ->
        for _ = 1 to cycles do
          ring_cycle ~oracle:(Varan_trace.Oracle.create ()) ~consumers ()
        done)
  in
  Float.max 0.0 (tapped -. ns_per_event ~consumers)

(* Shared-memory pool: one payload chunk allocated and freed. *)
let ns_per_alloc_free ~pooled_bytes =
  let n = 20_000 in
  let pool = Pool.create () in
  time ~calls:n (fun () ->
      for _ = 1 to n do
        Pool.free pool (Pool.alloc pool pooled_bytes)
      done)

(* Binary rewriter: a cold rewrite of each image profile the workload
   launched, averaged over the images (each server launches once per
   run). *)
let rewriter_cold_ms (s : Common.shapes) =
  let module V = Varan_nvx.Variant in
  let cold (p : V.code_profile) =
    let image =
      Varan_binary.Codegen.profile_image
        (Varan_util.Prng.create p.V.code_seed)
        ~code_bytes:p.V.code_bytes ~syscall_share:p.V.syscall_share
    in
    time ~calls:1 (fun () -> ignore (Varan_binary.Rewriter.rewrite image)) /. 1e6
  in
  Common.sumf cold s.Common.images /. float_of_int (max 1 (List.length s.Common.images))

type t = {
  switch_ns : float;
  roundtrip_ns : float;
  file_read_ns : float;
  event_c1_ns : float;
  event_c3_ns : float;
  event_ns : float;  (** at the workload's consumer counts *)
  alloc_free_ns : float;
  rewrite_cold_ms : float;
  oracle_event_ns : float;  (** at the workload's consumer counts *)
}

(* [f consumers] weighted by each consumer count's share of the ring
   events. *)
let at_consumers (s : Common.shapes) f =
  List.fold_left (fun acc (n, share) -> acc +. (share *. f n)) 0.0 s.Common.consumers

let run (s : Common.shapes) =
  let c1 = ns_per_event ~consumers:1 and c3 = ns_per_event ~consumers:3 in
  {
    switch_ns = ns_per_switch ();
    roundtrip_ns =
      ns_per_socket_roundtrip ~request_bytes:s.Common.request_bytes
        ~reply_bytes:s.Common.reply_bytes;
    file_read_ns = ns_per_file_read ();
    event_c1_ns = c1;
    event_c3_ns = c3;
    event_ns =
      at_consumers s (function 1 -> c1 | 3 -> c3 | n -> ns_per_event ~consumers:n);
    alloc_free_ns = ns_per_alloc_free ~pooled_bytes:s.Common.pooled_bytes;
    rewrite_cold_ms = rewriter_cold_ms s;
    oracle_event_ns = at_consumers s (fun n -> oracle_ns_per_event ~consumers:n);
  }
