(* failover-churn: a block of lifecycle torture cases with checkpointing
   on, each run with Harness.run_case and judged by Harness.check and
   Harness.check_lifecycle with the trace oracle attached. Followers are
   stalled past the watchdog timeout (and sometimes crashed), so they are
   quarantined, respawned from the zygote, restored from a checkpoint
   and caught up from the tape before rejoining.

   The seed and the block number pick the cases: block [b] of seed [s]
   is cases [s * 100_000 + b * 1_000 ..] of the lifecycle generator. *)

open Common
module E = Varan_sim.Engine
module Variant = Varan_nvx.Variant
module Lifecycle = Varan_nvx.Lifecycle
module Harness = Varan_torture.Harness
module Flight = Varan_obs.Flight
module Programs = Varan_torture.Programs

let cases = 300
let checkpoint_interval = 20_000

(* Set-up is timed on this many cases of the block. *)
let setup_probes = 15

let case_of seed block i =
  let c = Harness.gen_lifecycle_case ((seed * 100_000) + (block * 1_000) + i) in
  {
    c with
    Harness.lifecycle =
      Option.map
        (fun p -> { p with Lifecycle.checkpoint_interval })
        c.Harness.lifecycle;
  }

(* Set-up of one case: the harness's own path (machine, session with the
   case's config, variant spawn with image rewrite and zygote forks) run
   with an empty program, so it ends where the case's first op would
   start. *)
let setup_probe (c : Harness.case) =
  let t0 = Wall.now () in
  ignore (Harness.run_ops c []);
  Wall.ns_since t0

(* The traffic of a case's program, from its ops: bytes passed in
   (writes) as requests, bytes asked out (reads, getrandom) as replies,
   and the out-buffers too large for an event as pooled payloads. *)
let rec program_io io ops =
  List.iter
    (function
      | Programs.Write_newest n ->
        io.requests <- io.requests + 1;
        io.request_bytes <- io.request_bytes + n
      | Programs.Read_newest n | Programs.Getrandom n ->
        io.replies <- io.replies + 1;
        io.reply_bytes <- io.reply_bytes + n;
        if n > Varan_ringbuf.Event.max_inline_bytes then begin
          io.pooled <- io.pooled + 1;
          io.pooled_bytes <- io.pooled_bytes + n
        end
      | Programs.Fork child -> program_io io child
      | _ -> ())
    ops

(* Follower recovery latencies (quarantine -> healthy again), in virtual
   cycles, read from the session's flight-recorder transition history. *)
let recoveries session =
  let fl = Session.flight session in
  let name = Lifecycle.state_name in
  let quarantined = Hashtbl.create 4 in
  List.fold_left
    (fun acc (tr : Flight.transition) ->
      if tr.Flight.tr_to = name Lifecycle.Quarantined then begin
        Hashtbl.replace quarantined tr.Flight.tr_idx tr.Flight.tr_at;
        acc
      end
      else if
        tr.Flight.tr_to = name Lifecycle.Healthy && tr.Flight.tr_from = name Lifecycle.Catching_up
      then
        match Hashtbl.find_opt quarantined tr.Flight.tr_idx with
        | Some t ->
          Hashtbl.remove quarantined tr.Flight.tr_idx;
          Int64.sub tr.Flight.tr_at t :: acc
        | None -> acc
      else acc)
    []
    (List.rev fl.Flight.transitions)

let block ~seed ~block =
  let block = List.init cases (case_of seed block) in
  let setup_ns =
    Wall.span "setup" (fun () -> List.map setup_probe (List.filteri (fun i _ -> i < setup_probes) block))
  in
  (* Each case is reduced to its counts right away, so finished sessions
     are not kept alive across the block. *)
  let results =
    List.map
      (fun c ->
        let tc = Wall.now () in
        let out = Wall.span "run" (fun () -> Harness.run_case c) in
        let wall = Wall.ns_since tc in
        let fails =
          Wall.span "check" (fun () -> Harness.check c out @ Harness.check_lifecycle c out)
        in
        let module Cp = Varan_nvx.Checkpoint in
        let io = new_io () in
        program_io io (Harness.build_program c);
        let sc = session_counts [ out.Harness.stats ] in
        let cp = out.Harness.stats.Session.checkpoints in
        let lc = out.Harness.lifecycle in
        let lcount f = match lc with Some r -> float_of_int (f r) | None -> 0.0 in
        let counts =
          ("respawns", lcount (fun r -> r.Lifecycle.respawns))
          :: ("rejoins", lcount (fun r -> r.Lifecycle.rejoins))
          :: ("restores", float_of_int cp.Cp.restores)
          :: ("delta_events", float_of_int cp.Cp.delta_events)
          :: ("oracle_events", float_of_int out.Harness.report.Varan_trace.Oracle.events)
          :: ring_events_at ~consumers:c.Harness.followers (List.assoc "ring_events" sc)
          :: io_counts io
          @ sc
        in
        (c, counts, fails, recoveries out.Harness.session, (Printf.sprintf "case%d" c.Harness.seed, wall, 1)))
      block
  in
  let counts = sum_counts (List.map (fun (_, cs, _, _, _) -> cs) results) in
  let cost = Varan_cycles.Cost.default in
  let rec_us =
    Array.of_list
      (List.concat_map
         (fun (_, _, _, r, _) -> List.map (fun c -> Varan_cycles.Cost.cycles_to_us cost c) r)
         results)
  in
  let failed_cases = List.filter (fun (_, _, f, _, _) -> f <> []) results in
  {
    ops = cases;
    attempted = cases;
    failed = List.length failed_cases;
    setup_ns;
    segments = List.map (fun (_, _, _, _, seg) -> seg) results;
    counted_ns = sumf (fun (_, _, _, _, (_, ns, _)) -> ns) results;
    task_cycles = 0.0;
    counts =
      ("ops_counted", float_of_int cases) :: counts;
    samples = [ ("recovery", rec_us) ];
    problems =
      List.concat_map
        (fun (c, _, f, _, _) ->
          List.map (fun m -> Printf.sprintf "failover-churn case %d: %s" c.Harness.seed m) f)
        failed_cases;
  }

let virt b =
  let cost = Varan_cycles.Cost.default in
  latency_virt (samples b "recovery")
  @ [
      (* The leader's sustained rate of intercepted syscalls while its
         followers churn, per virtual second of syscall-layer time. *)
      ( "knee_rps",
        ratio (count b "leader_syscalls") (count b "leader_sys_cycles") *. cost.Varan_cycles.Cost.cpu_ghz *. 1e9 );
      ("nvx_overhead_x", ratio (count b "sys_cycles") (count b "leader_sys_cycles"));
    ]

let workload = { images = [ Variant.default_profile ]; nominal_block_s = 5.2; block; virt }
