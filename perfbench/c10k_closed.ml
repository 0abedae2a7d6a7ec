(* c10k-closed: the paper's Figure 5. The five C10k servers run natively
   and under VARAN with three followers (Config.default), each on a
   fresh simulated machine, driven by the catalog's closed-loop clients
   with their per-connection request counts scaled up.

   The seed draws each server's client think time, so different seeds
   pace the same request mixes differently. *)

open Common
module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Clients = Varan_workloads.Clients
module Workload = Varan_workloads.Workload
module Catalog = Varan_workloads.Catalog

let followers = 3
let scale = 3

let seeded_load seed i (w : Workload.t) first_op io =
  let rng = Varan_util.Prng.create ((seed * 31) + i) in
  let l = w.Workload.load in
  {
    l with
    Clients.requests_per_conn = l.Clients.requests_per_conn * scale;
    think_cycles = 400 + Varan_util.Prng.int rng 200;
    request_of =
      (fun ~conn ~seq ->
        if !first_op = 0L then first_op := Wall.now ();
        Wall.span "encode" (fun () -> encoded io (l.Clients.request_of ~conn ~seq)));
  }

(* The native half: the server's units as plain tasks on the kernel, on
   APIs that count what the server writes and receives into [io]. *)
let start_native (w : Workload.t) k io =
  let body = w.Workload.make_body () in
  let main = K.new_proc k w.Workload.w_name in
  for u = 0 to w.Workload.units - 1 do
    let proc =
      match w.Workload.unit_kind with
      | Variant.Process when u > 0 -> K.fork_proc k main (Printf.sprintf "worker%d" u)
      | _ -> main
    in
    let api = tally io (Api.direct k proc) in
    let tid =
      E.spawn (K.engine k)
        ~name:(Printf.sprintf "%s.unit%d" w.Workload.w_name u)
        (fun () -> try body ~unit_idx:u api with E.Killed -> ())
    in
    K.register_task k proc tid
  done

type half = {
  h_kind : string;
  h_result : Clients.result;
  h_attempted : int;
  h_stats : Session.stats option;  (** the VARAN half's monitor counts *)
  h_switches : int;
  h_task_cycles : float;
  h_setup : float;
  h_run : float;
  h_problems : string list;
}

let run_half ~seed i (w : Workload.t) ~nvx ~io =
  let label = Printf.sprintf "c10k-closed %s %s" w.Workload.w_name (if nvx then "varan" else "native") in
  let t0 = Wall.now () in
  let first_op = ref 0L in
  let load = seeded_load seed i w first_op io in
  let eng, session, result =
    Wall.span "setup" (fun () ->
        let eng = E.create () in
        let k = K.create ~link_latency:3_500 eng in
        w.Workload.setup_fs k;
        let session =
          Wall.span "launch" (fun () ->
              if nvx then
                Some
                  (Session.launch ~config:Config.default k
                     (List.init (followers + 1) (fun j ->
                          Workload.fresh_variant w (Printf.sprintf "%s.v%d" w.Workload.w_name j))))
              else begin
                start_native w k io;
                None
              end)
        in
        let result = Clients.launch k ~cost:(K.cost k) ~port_of:(Workload.port_of_conn w) load in
        (eng, session, result))
  in
  Wall.span "run" (fun () -> E.run_until_quiescent eng);
  let t_end = Wall.now () in
  let r = result in
  let attempted = load.Clients.connections * (load.Clients.requests_per_conn - load.Clients.warmup_requests) in
  let problems =
    Wall.span "check" (fun () ->
        (if r.Clients.conns_done <> load.Clients.connections then
           [ Printf.sprintf "%s: %d of %d connections finished" label r.Clients.conns_done load.Clients.connections ]
         else [])
        @ (if r.Clients.completed + r.Clients.errors <> attempted then
             [ Printf.sprintf "%s: attempted %d <> completed %d + errors %d" label attempted r.Clients.completed r.Clients.errors ]
           else [])
        @ (match session with Some s -> session_problems ~label [ s ] | None -> [])
        @ engine_problems ~label eng)
  in
  let first = if !first_op = 0L then t_end else !first_op in
  {
    h_kind = label;
    h_result = r;
    h_attempted = attempted;
    h_stats = Option.map Session.stats session;
    h_switches = E.task_switches eng;
    h_task_cycles = Int64.to_float (E.total_task_cycles eng);
    h_setup = Int64.to_float (Int64.sub first t0);
    h_run = Int64.to_float (Int64.sub t_end first);
    h_problems = problems;
  }

(* One block: the five servers, native then VARAN, with the load
   seeded by (seed, block). The traffic shapes are counted on the native
   halves: the VARAN halves send the same requests and their servers
   write the same replies. *)
let block ~seed ~block =
  let seed = (seed * 1_000) + block in
  let io = new_io () in
  let pairs =
    List.mapi
      (fun i w ->
        let native = run_half ~seed i w ~nvx:false ~io in
        let varan = run_half ~seed i w ~nvx:true ~io:(new_io ()) in
        (w, native, varan))
      Catalog.c10k_servers
  in
  (* A closed-loop client sends a request only after the previous
     reply, so every request sent is answered. *)
  io.replies <- io.requests;
  let halves = List.concat_map (fun (_, n, v) -> [ n; v ]) pairs in
  let varans = List.map (fun (_, _, v) -> v) pairs in
  let completed h = h.h_result.Clients.completed in
  let mismatch =
    List.filter_map
      (fun ((w : Workload.t), n, v) ->
        if completed n <> completed v then
          Some
            (Printf.sprintf "c10k-closed %s: varan completed %d <> native %d" w.Workload.w_name
               (completed v) (completed n))
        else None)
      pairs
  in
  let stats = List.filter_map (fun v -> v.h_stats) varans in
  let throughput_counts ((w : Workload.t), n, v) =
    List.concat_map
      (fun (mode, h) ->
        let key = w.Workload.w_name ^ "_" ^ mode in
        [
          ("done_" ^ key, float_of_int (completed h));
          ("cycles_" ^ key, Int64.to_float (Clients.duration_cycles h.h_result));
        ])
      [ ("native", n); ("varan", v) ]
  in
  {
    ops = sum completed halves;
    attempted = sum (fun h -> h.h_attempted) halves;
    failed = sum (fun h -> h.h_attempted - completed h) halves;
    (* Set-up is sampled on the VARAN machines, where it includes the
       image rewrite and the zygote forks; a native machine has almost
       none, and mixing the two would make the median jump. *)
    setup_ns = List.map (fun h -> h.h_setup) varans;
    segments = List.map (fun h -> (h.h_kind, h.h_run, completed h)) halves;
    counted_ns = sumf (fun h -> h.h_run) varans;
    task_cycles = sumf (fun h -> h.h_task_cycles) halves;
    (* Monitor counts come from the VARAN half only (the native half
       has no monitor), so they are per VARAN request. *)
    counts =
      ("ops_counted", float_of_int (sum completed varans))
      :: ("task_switches", float_of_int (sum (fun h -> h.h_switches) varans))
      :: List.concat_map throughput_counts pairs
      @ io_counts io
      @ (let sc = session_counts stats in
         ring_events_at ~consumers:followers (List.assoc "ring_events" sc) :: sc);
    samples =
      [ ("varan", Array.concat (List.map (fun v -> Varan_util.Floatbuf.to_array v.h_result.Clients.lat) varans)) ];
    problems = List.concat_map (fun h -> h.h_problems) halves @ mismatch;
  }

let virt b =
  let cost = Varan_cycles.Cost.default in
  let rps key = ratio (count b ("done_" ^ key)) (count b ("cycles_" ^ key)) *. cost.Varan_cycles.Cost.cpu_ghz *. 1e9 in
  let names = List.map (fun (w : Workload.t) -> w.Workload.w_name) Catalog.c10k_servers in
  latency_virt (samples b "varan")
  @ [
      (* A closed loop runs at the system's capacity, so its throughput
         is the highest rate the server sustains. *)
      ("knee_rps", geomean (List.map (fun n -> rps (n ^ "_varan")) names));
      ("nvx_overhead_x", geomean (List.map (fun n -> rps (n ^ "_native") /. rps (n ^ "_varan")) names));
    ]
  @ List.concat_map
      (fun n -> [ (n ^ "_native_rps", rps (n ^ "_native")); (n ^ "_varan_rps", rps (n ^ "_varan")) ])
      names

let workload =
  {
    images = List.map (fun (w : Workload.t) -> w.Workload.profile) Catalog.c10k_servers;
    nominal_block_s = 2.0;
    block;
    virt;
  }
