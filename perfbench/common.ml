(* What one block of a workload's work reports.

   A block is a deterministic function of the seed and the block number.
   [counts] and [samples] are outputs of the simulated system, so two
   runs of one block must give identical values; the runner checks this
   on block 0. The wall-clock fields are measured and never compared. *)

type block = {
  ops : int;  (** ops completed *)
  attempted : int;
  failed : int;  (** client errors + lost requests + failed case checks *)
  setup_ns : float list;  (** workload start -> first op, one per machine *)
  segments : (string * float * int) list;
      (** timed wall-clock pieces as (kind, wall ns, ops); a kind names
          the same work in every block of a run *)
  counted_ns : float;  (** wall ns of the runs that [counts] describe *)
  task_cycles : float;
      (** engine task-cycles over the block, the denominator of the
          profile's coverage; 0 where the harness owns the engines *)
  counts : (string * float) list;
      (** layer work totals and the traffic shapes (see {!shapes_of}),
          summable *)
  samples : (string * float array) list;
      (** named sets of virtual-time samples (µs), poolable *)
  problems : string list;  (** correctness-gate failures; empty = pass *)
}

type workload = {
  images : Varan_nvx.Variant.code_profile list;
      (** the image profiles the workload launches, one entry per
          server *)
  nominal_block_s : float;
      (** a block's wall time on a 2-core x86-64 VM; the timed phase runs
          ceil(seconds / nominal_block_s) blocks *)
  block : seed:int -> block:int -> block;
  virt : block -> (string * float) list;
      (** the end-to-end virtual metrics of a (pooled) block *)
}

(* Count lists summed key by key; a key some lists lack counts as zero
   there. *)
let sum_counts ls =
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) ls) in
  List.map
    (fun k ->
      (k, List.fold_left (fun acc l -> acc +. Option.value (List.assoc_opt k l) ~default:0.0) 0.0 ls))
    keys

(* Blocks pooled into one: counts summed, samples concatenated; a key
   some blocks lack (serve-open's later blocks have no ladder) counts
   as zero or empty there. *)
let pool = function
  | [] -> invalid_arg "pool"
  | bs ->
    let sumf f = List.fold_left (fun acc x -> acc +. f x) 0.0 bs in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 bs in
    let keys f = List.sort_uniq compare (List.concat_map (fun b -> List.map fst (f b)) bs) in
    {
      ops = sum (fun b -> b.ops);
      attempted = sum (fun b -> b.attempted);
      failed = sum (fun b -> b.failed);
      setup_ns = List.concat_map (fun b -> b.setup_ns) bs;
      segments = List.concat_map (fun b -> b.segments) bs;
      counted_ns = sumf (fun b -> b.counted_ns);
      task_cycles = sumf (fun b -> b.task_cycles);
      counts = sum_counts (List.map (fun b -> b.counts) bs);
      samples =
        List.map
          (fun k -> (k, Array.concat (List.filter_map (fun b -> List.assoc_opt k b.samples) bs)))
          (keys (fun b -> b.samples));
      problems = List.concat_map (fun b -> b.problems) bs;
    }

let ratio a b = if b > 0.0 then a /. b else 0.0

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The percentile [q] of [a] (sorted in place), nearest-rank. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort compare a;
    let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) r))
  end

(* Wall-clock ops per second over [blocks]. The blocks' wall time is
   split into segments; segments of one kind do the same work (one
   server's half of c10k in every block, say). Each kind is charged its
   median wall time per op across the blocks, and the kinds are summed at
   their mean op counts, so a slow spell of a shared host that lengthens
   a minority of a kind's segments does not move the figure, while a
   slowdown of the program, which lengthens them all, does. Kinds that
   occur once (a failover case) count as measured. *)
let ops_per_s blocks =
  let segs = List.concat_map (fun b -> b.segments) blocks in
  let kinds = List.sort_uniq compare (List.map (fun (k, _, _) -> k) segs) in
  let ops, ns =
    List.fold_left
      (fun (ops, ns) k ->
        match List.filter (fun (k', _, o) -> k' = k && o > 0) segs with
        | [] -> (ops, ns)
        | mine ->
          let n = float_of_int (List.length mine) in
          let mean_ops = List.fold_left (fun a (_, _, o) -> a +. float_of_int o) 0.0 mine /. n in
          let per_op = median (List.map (fun (_, w, o) -> w /. float_of_int o) mine) in
          (ops +. mean_ops, ns +. (per_op *. mean_ops)))
      (0.0, 0.0) kinds
  in
  ratio ops (ns /. 1e9)

(* The same segments' ops over their total wall time, slow spells
   included. *)
let plain_ops_per_s blocks =
  let segs = List.concat_map (fun b -> b.segments) blocks in
  ratio
    (float_of_int (List.fold_left (fun a (_, _, o) -> a + o) 0 segs))
    (List.fold_left (fun a (_, w, _) -> a +. w) 0.0 segs /. 1e9)

let count b name =
  match List.assoc_opt name b.counts with Some v -> v | None -> 0.0

let samples b name =
  match List.assoc_opt name b.samples with Some a -> a | None -> [||]

(* Per op of the portion the counts were taken over. *)
let per_op b name = ratio (count b name) (count b "ops_counted")

(* Latency percentiles of [a] with the sample count. A tail percentile
   is reported only where at least ten samples lie beyond it; with fewer
   samples p99 and p999 fall back to the highest percentile that does,
   [virtual_tail_q], so a small sample never reports a tail it cannot
   resolve. *)
let latency_virt a =
  let n = Array.length a in
  let q = Float.min 0.999 (Float.max 0.5 (1.0 -. (10.0 /. float_of_int (max n 1)))) in
  let a = Array.copy a in
  [
    ("virtual_p50_us", percentile a 0.5);
    ("virtual_p99_us", percentile a (Float.min 0.99 q));
    ("virtual_p999_us", percentile a q);
    ("virtual_tail_q", q);
    ("virtual_samples", float_of_int n);
  ]

let geomean = function
  | [] -> 0.0
  | l ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l
         /. float_of_int (List.length l))

(* Sum a field over the stats of many sessions. *)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* The traffic a workload produced, measured where the benchmark can
   see it: request sizes in the [request_of] hooks it owns, and what a
   server writes and receives through the API the benchmark hands it.
   The totals travel in a block's counts under these names, so they pool
   and are covered by the determinism check:

   - requests, request_bytes: requests encoded and their bytes;
   - replies, reply_bytes: replies and the bytes a server writes or
     sends for them (framing included);
   - pooled, pooled_bytes: out-buffer results too large for an event,
     which the monitor copies through the shared-memory pool;
   - ring_events_cN: ring events published to N consumers. *)
type io = {
  mutable requests : int;
  mutable request_bytes : int;
  mutable replies : int;
  mutable reply_bytes : int;
  mutable pooled : int;
  mutable pooled_bytes : int;
}

let new_io () =
  { requests = 0; request_bytes = 0; replies = 0; reply_bytes = 0; pooled = 0; pooled_bytes = 0 }

(* Count one encoded request and return it. *)
let encoded io req =
  io.requests <- io.requests + 1;
  io.request_bytes <- io.request_bytes + Bytes.length req;
  req

(* An API whose every system call is counted into [io] on the way back:
   bytes written or sent, and out-buffer results above the event's
   inline capacity. It wraps the gateway as Strace.attach does; the
   other fields are the caller's, copied when the program starts. *)
let tally io (api : Varan_kernel.Api.t) =
  let module Sysno = Varan_syscall.Sysno in
  let module Args = Varan_syscall.Args in
  {
    api with
    Varan_kernel.Api.sys =
      (fun sysno args ->
        let r = api.Varan_kernel.Api.sys sysno args in
        (match (Sysno.transfer_class sysno, r.Args.out) with
        | _, Some out when Bytes.length out > Varan_ringbuf.Event.max_inline_bytes ->
          io.pooled <- io.pooled + 1;
          io.pooled_bytes <- io.pooled_bytes + Bytes.length out
        | Sysno.In_buffer, _ when r.Args.ret > 0 -> io.reply_bytes <- io.reply_bytes + r.Args.ret
        | _ when sysno = Sysno.Sendfile && r.Args.ret > 0 ->
          io.reply_bytes <- io.reply_bytes + r.Args.ret
        | _ -> ());
        r);
  }

let io_counts io =
  let fl = float_of_int in
  [
    ("requests", fl io.requests);
    ("request_bytes", fl io.request_bytes);
    ("replies", fl io.replies);
    ("reply_bytes", fl io.reply_bytes);
    ("pooled", fl io.pooled);
    ("pooled_bytes", fl io.pooled_bytes);
  ]

let ring_events_at ~consumers events =
  (Printf.sprintf "ring_events_c%d" consumers, events)

(* What the layer replay pass re-times. *)
type shapes = {
  consumers : (int * float) list;
      (** ring consumer counts, each with its share of the ring events *)
  request_bytes : int;  (** mean request *)
  reply_bytes : int;  (** mean reply *)
  pooled_bytes : int;
      (** mean pooled payload; one byte over the inline capacity when
          nothing was pooled *)
  images : Varan_nvx.Variant.code_profile list;
}

let shapes_of ~images b =
  let mean total n = int_of_float (Float.round (ratio (count b total) (count b n))) in
  let prefix = "ring_events_c" in
  let pl = String.length prefix in
  let at =
    List.filter_map
      (fun (k, v) ->
        if String.length k > pl && String.sub k 0 pl = prefix && v > 0.0 then
          Some (int_of_string (String.sub k pl (String.length k - pl)), v)
        else None)
      b.counts
  in
  let events = List.fold_left (fun a (_, v) -> a +. v) 0.0 at in
  {
    consumers = List.map (fun (n, v) -> (n, v /. events)) at;
    request_bytes = mean "request_bytes" "requests";
    reply_bytes = mean "reply_bytes" "replies";
    pooled_bytes =
      (if count b "pooled" > 0.0 then mean "pooled_bytes" "pooled"
       else Varan_ringbuf.Event.max_inline_bytes + 1);
    images;
  }

module Session = Varan_nvx.Session

(* The layer counts every NVX session contributes, summed over sessions:
   leader syscalls, ring traffic, pool allocations, follower stalls and
   the interception dispatch mix. *)
let session_counts (stats : Session.stats list) =
  let variants = List.concat_map (fun s -> Array.to_list s.Session.variants) stats in
  let leaders = List.filter (fun v -> v.Session.vs_role = Session.Leader) variants in
  let followers = List.filter (fun v -> v.Session.vs_role = Session.Follower) variants in
  let rings = List.concat_map (fun s -> Array.to_list s.Session.rings) stats in
  let module R = Varan_ringbuf.Ring in
  let fl = float_of_int in
  let jump = sum (fun v -> v.Session.vs_jump_dispatches) variants in
  let trap = sum (fun v -> v.Session.vs_trap_dispatches) variants in
  let vdso = sum (fun v -> v.Session.vs_vdso_dispatches) variants in
  let cache = List.map (fun s -> s.Session.rewrite_cache) stats in
  let module C = Varan_binary.Rewrite_cache in
  [
    ("leader_syscalls", fl (sum (fun v -> v.Session.vs_syscalls) leaders));
    ("ring_events", fl (sum (fun r -> r.R.publishes) rings));
    ("ring_wakeups", fl (sum (fun r -> r.R.publish_wakeups + r.R.consume_wakeups) rings));
    ("ring_producer_stalls", fl (sum (fun r -> r.R.producer_stalls) rings));
    ("ring_gate_recomputes", fl (sum (fun r -> r.R.gate_recomputes) rings));
    ("pool_allocs", fl (sum (fun s -> s.Session.pool.Varan_shmem.Pool.allocs) stats));
    ("stall_blocks", fl (sum (fun v -> v.Session.vs_stall_blocks) followers));
    ("stall_cycles", sumf (fun v -> Int64.to_float v.Session.vs_stall_cycles) followers);
    ("sys_cycles", sumf (fun v -> Int64.to_float v.Session.vs_sys_cycles) variants);
    ("leader_sys_cycles", sumf (fun v -> Int64.to_float v.Session.vs_sys_cycles) leaders);
    ("jump_dispatches", fl jump);
    ("all_dispatches", fl (jump + trap + vdso));
    ("cache_hits", fl (sum (fun c -> c.C.hits) cache));
    ("cache_lookups", fl (sum (fun c -> c.C.hits + c.C.misses) cache));
    ( "tape_resident_bytes",
      fl
        (sum
           (fun s ->
             sum (fun t -> t.Varan_nvx.Tape.resident_bytes) (Array.to_list s.Session.tapes))
           stats) );
    ( "tape_events",
      fl
        (sum
           (fun s -> if Array.length s.Session.tapes = 0 then 0 else sum (fun r -> r.R.publishes) (Array.to_list s.Session.rings))
           stats) );
    ("spawn_preps", fl (sum (fun v -> v.Session.vs_spawn_preps) variants));
  ]

(* Correctness problems every NVX session is checked for: unplanned
   crashes, degradation and divergences resolved through rewrite rules. *)
let session_problems ~label sessions =
  List.concat_map
    (fun s ->
      (if Session.crash_count s > 0 then
         [
           Printf.sprintf "%s: %d unplanned crashes (%s)" label (Session.crash_count s)
             (String.concat "; "
                (List.map (fun (i, e) -> Printf.sprintf "variant %d: %s" i e) (Session.crashes s)));
         ]
       else [])
      @ (match Session.degraded s with
        | Some r -> [ Printf.sprintf "%s: session degraded (%s)" label r ]
        | None -> [])
      @
      match Session.divergence_log s with
      | [] -> []
      | l -> [ Printf.sprintf "%s: %d divergences logged" label (List.length l) ])
    sessions

let engine_problems ~label eng =
  List.map
    (fun (tid, e) ->
      Printf.sprintf "%s: task %s died: %s" label
        (Varan_sim.Engine.task_name eng tid)
        (Printexc.to_string e))
    (Varan_sim.Engine.failures eng)
