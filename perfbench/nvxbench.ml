(* The NVX benchmark: one workload, one seed, one measured run.

     nvxbench --workload serve-open|c10k-closed|failover-churn
              --seed N --seconds S --trace 0|1 [--out DIR]

   A workload's work comes in blocks, each a deterministic function of
   the seed and the block number. Block 0 runs first as the warm-up. The
   timed phase is block 0 again, which must repeat the warm-up's counts
   and samples exactly (the determinism check), then blocks 1..K-1,
   where K = max 2 (ceil (S / the workload's nominal block time)), so a
   run measures about S seconds and its work depends on the seed and S
   alone. Every metric comes from the timed phase, pooled over its
   blocks; every block must pass the correctness gate, or the run exits
   1 without a result line.

   With --trace 0 the result line carries the end-to-end metrics. With
   --trace 1 the run also replays each layer's hot functions at the
   workload's shapes and makes one traced block (Obs.Profile, Obs.Trace
   and the benchmark's own spans, written as Chrome JSON into DIR), and
   the result line carries the per-layer metrics. Every line before the
   result names a metric, its value and its unit. *)

open Common
module Profile = Varan_obs.Profile
module Trace = Varan_obs.Trace

let workloads =
  [
    ("serve-open", Serve_open.workload);
    ("c10k-closed", C10k_closed.workload);
    ("failover-churn", Failover_churn.workload);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("nvxbench: " ^ s); exit 1) fmt

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref 0 in
  let out = ref "perfbench-trace" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where the traced run writes Chrome JSON");
    ]
    (fun a -> die "unexpected argument %s" a)
    "nvxbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None -> die "unknown workload %S" !workload
  | Some _ when !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
    die "need --seed N>=0, --seconds S>=1 and --trace 0|1"
  | Some w -> (!workload, w, !seed, !seconds, !trace = 1, !out)

(* Determinism: two runs of one block must agree on everything the
   simulated system produced. *)
let same_outputs a b =
  let differ l1 l2 =
    List.filter_map (fun (k, v) -> if List.assoc_opt k l2 = Some v then None else Some k) l1
  in
  match differ a.counts b.counts @ differ a.samples b.samples with
  | [] -> []
  | ks -> [ "two runs of block 0 differ in: " ^ String.concat ", " ks ]

(* Tracing overhead: the traced block's wall time per op against the
   median untraced wall time per op of the same segment kinds. *)
let trace_overhead ~untraced traced =
  let segs = List.concat_map (fun b -> b.segments) untraced in
  let t, u =
    List.fold_left
      (fun (t, u) (k, w, o) ->
        let same =
          List.filter_map
            (fun (k', w', o') -> if k' = k && o' > 0 then Some (w' /. float_of_int o') else None)
            segs
        in
        if same = [] || o = 0 then (t, u) else (t +. w, u +. (median same *. float_of_int o)))
      (0.0, 0.0) traced.segments
  in
  ratio t u

let print_metric (name, value, unit) = Printf.printf "%-36s %16.6g %s\n" name value unit

let json_metrics l =
  String.concat ","
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name value unit)
       l)

let () =
  let name, w, seed, seconds, traced, out = args () in
  let k = max 2 (int_of_float (Float.ceil (float_of_int seconds /. w.nominal_block_s))) in
  let first = w.block ~seed ~block:0 in
  let gc0 = Gc.quick_stat () in
  let second = w.block ~seed ~block:0 in
  let timed = second :: List.init (k - 1) (fun i -> w.block ~seed ~block:(i + 1)) in
  let gc1 = Gc.quick_stat () in
  let peak_heap_mb = float_of_int gc1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let problems = List.concat_map (fun b -> b.problems) (first :: timed) @ same_outputs first second in
  if problems <> [] then begin
    List.iter (fun p -> prerr_endline ("nvxbench: FAIL " ^ p)) problems;
    exit 1
  end;
  let b = pool timed in
  let ops = float_of_int b.ops in
  let ops_per_s = ops_per_s timed in
  let virt = w.virt b in
  let v name = match List.assoc_opt name virt with Some x -> x | None -> 0.0 in
  let end_to_end =
    [
      ("ops_per_s", ops_per_s, "op/s");
      ("setup_s", median (List.concat_map (fun b -> b.setup_ns) (first :: timed)) /. 1e9, "s");
      ("peak_heap_mb", peak_heap_mb, "MB");
      ("minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. ops, "words/op");
      ("virtual_p50_us", v "virtual_p50_us", "virtual-us");
      ("virtual_p99_us", v "virtual_p99_us", "virtual-us");
      ("virtual_p999_us", v "virtual_p999_us", "virtual-us");
      ("knee_rps", v "knee_rps", "virtual-req/s");
      ("nvx_overhead_x", v "nvx_overhead_x", "x");
    ]
  in
  Printf.printf "# workload %s seed %d: %d timed blocks, %d ops, %d attempted, %d failed\n" name seed k
    b.ops b.attempted b.failed;
  Printf.printf "# plain ops_per_s (every timed segment, slow spells included): %.6g\n"
    (plain_ops_per_s timed);
  Printf.printf "# virtual tail: p99 and p999 are p%.2f at most, over %.0f samples\n"
    (100.0 *. v "virtual_tail_q") (v "virtual_samples");
  List.iter (fun (k, x) -> Printf.printf "# %s %.6g\n" k x) virt;
  List.iter print_metric end_to_end;
  let failed_frac = ("failed_frac", float_of_int b.failed /. float_of_int (max 1 b.attempted), "ratio") in
  print_metric failed_frac;
  let metrics =
    if not traced then end_to_end
    else begin
      let s = shapes_of ~images:w.images b in
      Printf.printf
        "# replay shapes: consumers %s; request %d B, reply %d B, pooled payload %d B; %d images\n"
        (String.concat ","
           (List.map (fun (n, share) -> Printf.sprintf "%d (%.2f of events)" n share) s.consumers))
        s.request_bytes s.reply_bytes s.pooled_bytes (List.length s.images);
      let rp = Replay.run s in
      (* The traced block: block 1 again, with every recorder on. *)
      Profile.reset ();
      Profile.enabled := true;
      Trace.reset ();
      Trace.configure ~capacity:(1 lsl 16) ();
      Wall.reset ();
      Wall.enabled := true;
      let tr = w.block ~seed ~block:1 in
      Wall.enabled := false;
      Profile.enabled := false;
      Trace.disable ();
      if tr.problems <> [] then begin
        List.iter (fun p -> prerr_endline ("nvxbench: FAIL (traced) " ^ p)) tr.problems;
        exit 1
      end;
      (try Sys.mkdir out 0o755 with Sys_error _ -> ());
      Trace.write_chrome_json (Filename.concat out (name ^ "-virtual.json"));
      Wall.write_chrome_json (Filename.concat out (name ^ "-wall.json"));
      let attributed = Int64.to_float (Profile.total ()) in
      let share p = ratio (Int64.to_float (Profile.cycles p)) attributed in
      let po name = per_op b name in
      let c name = count b name in
      let route_ns = Wall.mean_ns "route" and encode_ns = Wall.mean_ns "encode" in
      (* Figure-4-style reconciliation: per-op layer counts times their
         replayed per-call costs (a request routes and encodes once),
         against the measured wall ns per op of the portion the counts
         were taken over. *)
      let layer_ns_per_op =
        (po "task_switches" *. rp.Replay.switch_ns)
        +. (po "leader_syscalls" *. rp.Replay.roundtrip_ns /. float_of_int Replay.syscalls_per_roundtrip)
        +. (po "ring_events" *. rp.Replay.event_ns)
        +. (po "pool_allocs" *. rp.Replay.alloc_free_ns)
        +. (po "oracle_events" *. rp.Replay.oracle_event_ns)
        +. ((po "cache_lookups" -. po "cache_hits") *. rp.Replay.rewrite_cold_ms *. 1e6)
        +. route_ns +. encode_ns
      in
      let wall_ns_per_op = ratio b.counted_ns (c "ops_counted") in
      let l =
        [
          failed_frac;
          ("sim.task_switches_per_op", po "task_switches", "count/op");
          ("sim.ns_per_switch", rp.Replay.switch_ns, "ns");
          ("profile.sched_dispatch_share", share Profile.sched_dispatch, "ratio");
          ("kernel.syscalls_per_op", po "leader_syscalls", "count/op");
          ("kernel.ns_per_socket_roundtrip", rp.Replay.roundtrip_ns, "ns");
          ("kernel.ns_per_file_read", rp.Replay.file_read_ns, "ns");
          ("profile.syscall_exec_share", share Profile.syscall_exec, "ratio");
          ("profile.kernel_wait_share", share Profile.kernel_wait, "ratio");
          ("ring.events_per_op", po "ring_events", "count/op");
          ("ring.wakeups_per_op", po "ring_wakeups", "count/op");
          ("ring.producer_stalls_per_op", po "ring_producer_stalls", "count/op");
          ("ring.gate_recomputes_per_op", po "ring_gate_recomputes", "count/op");
          ("ring.ns_per_event_c1", rp.Replay.event_c1_ns, "ns");
          ("ring.ns_per_event_c3", rp.Replay.event_c3_ns, "ns");
          ("profile.ring_wait_share", share Profile.ring_wait, "ratio");
          ("profile.ring_gate_share", share Profile.ring_gate, "ratio");
          ("pool.allocs_per_op", po "pool_allocs", "count/op");
          ("pool.ns_per_alloc_free", rp.Replay.alloc_free_ns, "ns");
          ("session.stall_blocks_per_op", po "stall_blocks", "count/op");
          ("session.stall_cycles_per_op", po "stall_cycles", "cycles/op");
          ("session.sys_cycles_per_op", po "sys_cycles", "cycles/op");
          ("session.jump_dispatch_frac", ratio (c "jump_dispatches") (c "all_dispatches"), "ratio");
          ("router.ns_per_route", route_ns, "ns");
          ("router.max_shard_share", ratio (c "shard_assign_max") (c "shard_assign_mean"), "ratio");
          ("shard.degraded", c "shards_degraded", "count");
          ("lifecycle.respawns_per_op", po "respawns", "count/op");
          ("lifecycle.rejoins_per_op", po "rejoins", "count/op");
          ("checkpoint.restores_per_respawn", ratio (c "restores") (c "respawns"), "ratio");
          ("checkpoint.delta_events_per_restore", ratio (c "delta_events") (c "restores"), "count");
          ( "zygote.forks_per_op",
            (if List.mem_assoc "zygote_forks" b.counts then po "zygote_forks" else po "spawn_preps"),
            "count/op" );
          ("tape.resident_bytes_per_event", ratio (c "tape_resident_bytes") (c "tape_events"), "bytes/event");
          ("rewrite_cache.hit_rate", ratio (c "cache_hits") (c "cache_lookups"), "ratio");
          ("rewriter.cold_ms", rp.Replay.rewrite_cold_ms, "ms");
          ("profile.rewrite_share", share Profile.rewrite, "ratio");
          ("oracle.ns_per_event", rp.Replay.oracle_event_ns, "ns");
          ("profile.oracle_digest_share", share Profile.oracle_digest, "ratio");
          ("clients.ns_per_encode", encode_ns, "ns");
          ("profile.client_wait_share", share Profile.client_wait, "ratio");
          ("profile.client_idle_share", share Profile.client_idle, "ratio");
          ("gc.promoted_words_per_op", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. ops, "words/op");
          ( "gc.major_collections_per_kop",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. ops *. 1e3,
            "count/kop" );
          ("trace.overhead_x", trace_overhead ~untraced:timed tr, "x");
          ("profile.coverage", ratio attributed tr.task_cycles, "ratio");
          ("trace.dropped_spans", float_of_int (Trace.dropped () + !Wall.dropped), "count");
          ("layers.coverage", ratio layer_ns_per_op wall_ns_per_op, "ratio");
        ]
      in
      List.iter print_metric l;
      l
    end
  in
  Printf.printf "{\"correct\":true,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" b.attempted b.failed
    (json_metrics metrics)
