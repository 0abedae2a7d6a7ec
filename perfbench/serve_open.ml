(* serve-open: the sharded memcached-style serving scenario under an open
   loop, composed from the public entry points (Engine.create,
   Kernel.create, Shard.launch, Clients.launch_open,
   Engine.run_until_quiescent) so the benchmark owns the two per-request
   hooks it times: [port_of] (router lookup) and [request_of] (request
   encoding).

   A block is the operating point (25% of 8-shard capacity) plus a short
   ladder of fixed offered rates for the knee. *)

open Common
module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Shard = Varan_nvx.Shard
module Router = Varan_nvx.Router
module Clients = Varan_workloads.Clients
module Cache_server = Varan_workloads.Cache_server
module Serving = Varan_workloads.Serving

let shards = 8
let followers = 1
let units = 2
let workers = 48
let clients = 1_000_000
let work_cycles = 9_000
let profile = { Variant.code_bytes = 10_000; syscall_share = 0.01; code_seed = 13 }

(* Offered load as a mean Poisson gap in cycles. 8-shard capacity is
   about 1,400 cycles per request, so 5,600 is ~25% and the ladder
   steps sit at ~50%, ~75% and ~90%. *)
let op_gap = 5_600.0
let op_requests = 16_000
let op_warmup = 2_000
let ladder_gaps = [ 2_800.0; 1_870.0; 1_560.0 ]
let ladder_requests = 12_000

(* Arrivals queue while the variants spawn; at the higher rates that
   start-up backlog takes a few thousand requests to drain, and counting
   it would make the ladder measure start-up rather than the load. *)
let ladder_warmup = 4_000

(* The operating point's wall time is sampled every [chunk] requests
   sent after the warm-up. The j-th chunk of every block is the same
   kind of work, so Common.ops_per_s can take its fastest block. *)
let chunk = 1_000

(* The knee: p99 within this many virtual microseconds. *)
let slo_p99_us = 50.0

let keys = 1_024

(* Each key's value size, 128-384 bytes (mean 256), drawn from the seed,
   as a memslap-style value-size distribution; replies to GETs carry the
   value, so the seed shapes the service-time distribution too. *)
let values_of seed =
  let rng = Varan_util.Prng.create seed in
  Array.init keys (fun _ -> Bytes.make (128 + Varan_util.Prng.int rng 257) 'v')

(* The serving scenario's mix, 90% GET and 10% SET, after a warm-up of
   SETs that loads the cache, so GETs hit and return their key's value. *)
let encode ~warmup values ~client ~seq =
  let k = client mod keys in
  let key = Printf.sprintf "key-%d" k in
  if seq < warmup || seq mod 10 = 0 then Cache_server.set_cmd key values.(k)
  else Cache_server.get_cmd key

(* The leader (variant 0) of each shard runs on an API that counts the
   bytes it writes and the payloads it receives into [io]. *)
let variants_of io shard =
  (* Each unit expects [workers] connections in total, split across the
     units by the server; this is the accounting the serving scenario
     uses, kept as is so the benchmark measures the program as it is. *)
  let cfg =
    {
      Cache_server.port = Serving.port_base shard;
      units;
      work_cycles;
      expected_conns = workers;
    }
  in
  List.init (followers + 1) (fun j ->
      let body = Cache_server.make_body cfg () in
      let body = if j = 0 then fun ~unit_idx api -> body ~unit_idx (tally io api) else body in
      Variant.make ~profile ~mem_intensity_c1000:70
        (Printf.sprintf "shard%d.cache.v%d" shard j)
        { Variant.units; unit_kind = Variant.Thread; body })

(* One serving run at one offered load, reduced to what the report needs
   as soon as it ends, so finished machines are not kept alive. *)
type run = {
  gap : float;
  completed : int;
  errors : int;
  lost : int;
  lat : float array;
  duration_cycles : float;  (** first counted send -> last counted reply *)
  task_cycles : float;
  counts : (string * float) list;  (** layer counts of this run *)
  problems : string list;
  setup : float;  (** wall ns, start -> first request encoded *)
  wall : float;  (** wall ns, first request -> quiescence *)
  chunks : float list;
      (** wall ns of each successive [chunk] requests sent after the
          warm-up, oldest first *)
}

let run_point ~values ~seed ~gap ~requests ~warmup =
  let t0 = Wall.now () in
  let first_op = ref 0L in
  let encodes = ref 0 in
  let marks = ref [] in
  let io = new_io () in
  let eng, pool, result =
    Wall.span "setup" (fun () ->
        let eng = E.create () in
        let k = K.create ~link_latency:3_500 eng in
        let config = { Config.default with Config.lifecycle = Some Serving.serving_policy } in
        let pool =
          Wall.span "launch" (fun () ->
              Shard.launch ~config ~router_seed:seed k ~shards ~variants_of:(variants_of io))
        in
        let port_of client =
          Wall.span "route" (fun () ->
              Serving.port_base (Shard.route pool ~conn:client) + (client mod units))
        in
        let request_of ~client ~seq =
          if !first_op = 0L then first_op := Wall.now ();
          incr encodes;
          if !encodes >= warmup && (!encodes - warmup) mod chunk = 0 then marks := Wall.now () :: !marks;
          Wall.span "encode" (fun () -> encoded io (encode ~warmup values ~client ~seq))
        in
        let preconnect =
          List.concat_map
            (fun s -> List.init units (fun u -> Serving.port_base s + u))
            (List.init shards Fun.id)
        in
        let result =
          Clients.launch_open k ~cost:(K.cost k) ~port_of
            {
              Clients.ol_clients = clients;
              ol_requests = requests;
              ol_mean_gap_cycles = gap;
              ol_request_of = request_of;
              ol_seed = seed;
              ol_workers = workers;
              ol_warmup = warmup;
              ol_preconnect = preconnect;
            }
        in
        (eng, pool, result))
  in
  Wall.span "run" (fun () -> E.run_until_quiescent ~cycle_budget:20_000_000_000L eng);
  let t_end = Wall.now () in
  let label = Printf.sprintf "serve-open gap %.0f" gap in
  let attempted = requests - warmup in
  let r = result in
  (* Each worker left blocked at quiescence holds exactly one request
     that was sent and never answered. *)
  let lost = workers - r.Clients.conns_done in
  let problems =
    Wall.span "check" (fun () ->
        (if attempted <> r.Clients.completed + r.Clients.errors + lost then
           [
             Printf.sprintf "%s: attempted %d <> completed %d + errors %d + lost %d" label
               attempted r.Clients.completed r.Clients.errors lost;
           ]
         else [])
        @ (if Clients.latency_count r <> r.Clients.completed then
             [ label ^ ": latency samples <> completions" ]
           else [])
        @ (if !encodes > requests then [ label ^ ": more sends than arrivals" ] else [])
        @ (match Shard.degraded pool with
          | [] -> []
          | l -> [ Printf.sprintf "%s: %d shards degraded" label (List.length l) ])
        @ (if Shard.zygote_forks pool <> shards * (followers + 1) then
             [
               Printf.sprintf "%s: zygote forks %d <> %d" label (Shard.zygote_forks pool)
                 (shards * (followers + 1));
             ]
           else [])
        @ session_problems ~label (List.init shards (Shard.session pool))
        @ engine_problems ~label eng)
  in
  let first = if !first_op = 0L then t_end else !first_op in
  let module L = Varan_nvx.Lifecycle in
  let module C = Varan_binary.Rewrite_cache in
  let sessions = List.init shards (Shard.session pool) in
  let per_shard = Array.map float_of_int (Router.stats (Shard.router pool)).Router.per_shard in
  let lc = List.filter_map Session.lifecycle_report sessions in
  let cache = C.stats (Session.shared_cache (Shard.hub pool)) in
  let sc = session_counts (List.map Session.stats sessions) in
  (* One reply per request sent; the few lost requests move the mean
     reply size by well under 1%. *)
  io.replies <- io.requests;
  {
    gap;
    completed = r.Clients.completed;
    errors = r.Clients.errors;
    lost;
    lat = Varan_util.Floatbuf.to_array r.Clients.lat;
    duration_cycles = Int64.to_float (Clients.duration_cycles r);
    task_cycles = Int64.to_float (E.total_task_cycles eng);
    counts =
      ("ops_counted", float_of_int r.Clients.completed)
      :: ("task_switches", float_of_int (E.task_switches eng))
      :: ("respawns", float_of_int (sum (fun r -> r.L.respawns) lc))
      :: ("rejoins", float_of_int (sum (fun r -> r.L.rejoins) lc))
      :: ("zygote_forks", float_of_int (Shard.zygote_forks pool))
      :: ("shards_degraded", float_of_int (List.length (Shard.degraded pool)))
      :: ("shard_assign_max", Array.fold_left Float.max 0.0 per_shard)
      :: ("shard_assign_mean", Array.fold_left ( +. ) 0.0 per_shard /. float_of_int shards)
      :: ("lost", float_of_int lost)
      :: io_counts io
      (* The shards share one rewrite cache: count it once, not per shard. *)
      @ ("cache_hits", float_of_int cache.C.hits)
      :: ("cache_lookups", float_of_int (cache.C.hits + cache.C.misses))
      :: ring_events_at ~consumers:followers (List.assoc "ring_events" sc)
      :: List.filter (fun (k, _) -> k <> "cache_hits" && k <> "cache_lookups") sc;
    problems;
    setup = Int64.to_float (Int64.sub first t0);
    wall = Int64.to_float (Int64.sub t_end first);
    chunks =
      (let rec diffs acc = function
         | a :: (b :: _ as rest) -> diffs (Int64.to_float (Int64.sub a b) :: acc) rest
         | _ -> acc
       in
       diffs [] !marks);
  }

(* A ladder step passes when its p99 meets the limit and the backlog is
   not growing: the second half's p99 stays within 1.5x of the first
   half's (an overloaded queue grows without bound, so its second half
   is far worse). Every request is completed or counted, or the run has
   already failed its gate. *)
type step = { rps : float; p99 : float; p99_first : float; p99_second : float }

let passes p = p.p99 <= slo_p99_us && p.p99_second <= 1.5 *. p.p99_first

(* The highest rate that meets the limit. Between the last passing step
   and a next step that fails on p99 alone, the crossing is interpolated
   linearly in p99, so the figure moves smoothly with the system rather
   than jumping a whole ladder step. *)
let knee steps =
  let rec go = function
    | a :: (b :: _ as rest) when passes a ->
      if passes b then go rest
      else if b.p99 > slo_p99_us && b.p99 > a.p99 then
        a.rps +. ((b.rps -. a.rps) *. (slo_p99_us -. a.p99) /. (b.p99 -. a.p99))
      else a.rps
    | [ a ] when passes a -> a.rps
    | _ -> 0.0
  in
  go steps

let gap_name g = Printf.sprintf "gap%.0f" g

(* Blocks 0 to [ladder_blocks - 1] are the operating point then the
   ladder; later blocks are the operating point alone, so the timed phase
   has many operating-point samples for the wall-clock estimate while the
   knee still pools several ladders. Each run is on a fresh machine, with
   the arrival schedule and router seeded by (seed, block). *)
let ladder_blocks = 3

let block ~seed ~block =
  let values = values_of seed in
  let run_seed = (seed * 1_000) + block in
  let op = run_point ~values ~seed:run_seed ~gap:op_gap ~requests:op_requests ~warmup:op_warmup in
  let ladder =
    if block >= ladder_blocks then []
    else
      List.map
        (fun gap ->
          run_point ~values ~seed:run_seed ~gap ~requests:ladder_requests ~warmup:ladder_warmup)
        ladder_gaps
  in
  let runs = op :: ladder in
  let halves r =
    let n = Array.length r.lat in
    (Array.sub r.lat 0 (n / 2), Array.sub r.lat (n / 2) (n - (n / 2)))
  in
  {
    ops = sum (fun r -> r.completed) runs;
    attempted = (op_requests - op_warmup) + (List.length ladder * (ladder_requests - ladder_warmup));
    failed = sum (fun r -> r.errors + r.lost) runs;
    setup_ns = List.map (fun r -> r.setup) runs;
    segments = List.mapi (fun j ns -> (Printf.sprintf "op%d" j, ns, chunk)) op.chunks;
    counted_ns = op.wall;
    task_cycles = sumf (fun r -> r.task_cycles) runs;
    (* Layer counts are taken at the operating point only, so they are
       per request at the load the latency figures describe. *)
    counts =
      op.counts
      @ List.concat_map
          (fun r ->
            let g = gap_name r.gap in
            [ ("done_" ^ g, float_of_int r.completed); ("cycles_" ^ g, r.duration_cycles) ])
          runs;
    samples =
      ("op", op.lat)
      :: List.concat_map
           (fun r ->
             let g = gap_name r.gap in
             let first, second = halves r in
             [ (g, r.lat); (g ^ "_first", first); (g ^ "_second", second) ])
           runs;
    problems = List.concat_map (fun r -> r.problems) runs;
  }

let virt b =
  let cost = Varan_cycles.Cost.default in
  let steps =
    List.map
      (fun gap ->
        let g = gap_name gap in
        let p99 name = percentile (Array.copy (samples b name)) 0.99 in
        {
          rps = ratio (count b ("done_" ^ g)) (count b ("cycles_" ^ g)) *. cost.Varan_cycles.Cost.cpu_ghz *. 1e9;
          p99 = p99 g;
          p99_first = p99 (g ^ "_first");
          p99_second = p99 (g ^ "_second");
        })
      (op_gap :: ladder_gaps)
  in
  latency_virt (samples b "op")
  @ [
      ("knee_rps", knee steps);
      (* Syscall-layer cycles of all versions per leader cycle: what
         running the followers adds on top of the leader alone. *)
      ("nvx_overhead_x", ratio (count b "sys_cycles") (count b "leader_sys_cycles"));
    ]
  @ List.concat_map
      (fun (gap, st) ->
        [
          (Printf.sprintf "ladder_%s_rps" (gap_name gap), st.rps);
          (Printf.sprintf "ladder_%s_p99_us" (gap_name gap), st.p99);
          (Printf.sprintf "ladder_%s_p99_second_over_first" (gap_name gap), ratio st.p99_second st.p99_first);
        ])
      (List.combine (op_gap :: ladder_gaps) steps)

let workload = { images = [ profile ]; nominal_block_s = 1.6; block; virt }
