module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Fault = Varan_fault.Plan
module Oracle = Varan_trace.Oracle
module Lifecycle = Varan_nvx.Lifecycle
module Checkpoint = Varan_nvx.Checkpoint
module Prng = Varan_util.Prng
module Stats = Varan_util.Stats
module Flight = Varan_obs.Flight
module P = Programs

type case = {
  seed : int;
  followers : int;
  prog_len : int;
  ring_size : int;
  plan : Fault.t;
  lifecycle : Lifecycle.policy option;
  net : Config.net option;
      (* distributed mode: the last [remote_followers] followers consume
         through the cross-node ring bridge *)
}

let gen_case seed =
  let rng = Prng.create seed in
  let followers = 1 + Prng.int rng 4 in
  let prog_len = 8 + Prng.int rng 53 in
  let plan =
    Fault.random rng ~variants:(followers + 1) ~max_seq:(prog_len * 3 / 2)
      ~max_op:prog_len
  in
  { seed; followers; prog_len; ring_size = 8; plan; lifecycle = None; net = None }

(* The lifecycle sweep's policy: aggressive enough that every injected
   stall (>= 300k cycles, see below) trips the watchdog long before the
   sleep ends, with backoffs short enough that two respawns still fit the
   cycle budget. [lag_threshold] sits below the ring size so a stalled
   consumer's (capacity-capped) live lag can exceed it. *)
let lifecycle_policy =
  {
    Lifecycle.lag_threshold = 4;
    stall_timeout = 150_000;
    max_restarts = 2;
    backoff = 50_000;
    min_followers = 1;
    watchdog_period = 20_000;
    (* Checkpointing stays off in the base policy so the long-standing
       sweeps exercise the full-tape rejoin path unchanged; checkpointed
       cases opt in per test. *)
    checkpoint_interval = 0;
  }

let gen_lifecycle_case seed =
  let rng = Prng.create (seed lxor 0x11FEC) in
  let followers = 1 + Prng.int rng 4 in
  let prog_len = 12 + Prng.int rng 49 in
  let max_seq = prog_len * 3 / 2 in
  let follower_idx () = 1 + Prng.int rng followers in
  (* Stalls an order of magnitude past [stall_timeout]: the watchdog must
     quarantine the sleeper, never wait it out. Leader (idx 0) is never a
     victim — lifecycle recovery is a follower affair. *)
  let stalls =
    List.init
      (1 + Prng.int rng 2)
      (fun _ ->
        Fault.Stall_follower
          {
            idx = follower_idx ();
            at_seq = 1 + Prng.int rng max_seq;
            delay = 300_000 + Prng.int rng 700_000;
          })
  in
  let plan =
    if Prng.int rng 3 = 0 then
      Fault.Crash_variant { idx = follower_idx (); at_seq = 1 + Prng.int rng max_seq }
      :: stalls
    else stalls
  in
  {
    seed;
    followers;
    prog_len;
    ring_size = 8;
    plan;
    lifecycle = Some lifecycle_policy;
    net = None;
  }

(* The distributed sweep: link faults (partitions, reorders, drops,
   dups, delays) against a session whose highest-indexed followers live
   behind the ring bridge, mixed with the single-node lifecycle faults
   so both machineries compose. At least one follower stays local, so a
   parked remote side degrades the session only when local followers die
   too. The session watchdog's link-down threshold (300k cycles) sits
   above [lifecycle_policy.stall_timeout] (150k) by construction. *)
let gen_net_case seed =
  let rng = Prng.create (seed lxor 0xD157) in
  let followers = 2 + Prng.int rng 3 in
  let remote = 1 + Prng.int rng (followers - 1) in
  let prog_len = 12 + Prng.int rng 49 in
  let max_seq = prog_len * 3 / 2 in
  let link = Fault.random_link rng ~max_frame:prog_len in
  let extra =
    match Prng.int rng 4 with
    | 0 ->
      [
        Fault.Stall_follower
          {
            idx = 1 + Prng.int rng followers;
            at_seq = 1 + Prng.int rng max_seq;
            delay = 300_000 + Prng.int rng 700_000;
          };
      ]
    | 1 ->
      [
        Fault.Crash_variant
          {
            idx = 1 + Prng.int rng followers;
            at_seq = 1 + Prng.int rng max_seq;
          };
      ]
    | _ -> []
  in
  let policy =
    {
      lifecycle_policy with
      Lifecycle.checkpoint_interval = (if seed mod 3 = 0 then 60_000 else 0);
    }
  in
  let net =
    { Config.remote_followers = remote; link_latency = 500 + Prng.int rng 3_500 }
  in
  {
    seed;
    followers;
    prog_len;
    ring_size = 8;
    plan = link @ extra;
    lifecycle = Some policy;
    net = Some net;
  }

let describe_case c =
  Printf.sprintf "seed=%d followers=%d len=%d ring=%d%s%s plan=[%s]" c.seed
    c.followers c.prog_len c.ring_size
    (if c.lifecycle = None then "" else " lifecycle")
    (match c.net with
    | None -> ""
    | Some n -> Printf.sprintf " net(remote=%d)" n.Config.remote_followers)
    (Fault.to_string c.plan)

let build_program case =
  (* A stream independent of [gen_case]'s: extending the plan generator
     must not reshuffle every workload. *)
  let rng = Prng.create (case.seed lxor 0x7A57E5) in
  let ops = P.gen_ops rng case.prog_len in
  let ops =
    if
      List.exists
        (function Fault.Signal_burst _ -> true | _ -> false)
        case.plan
    then P.Install_handler :: ops
    else ops
  in
  P.splice_forks rng ops ~at:(Fault.fork_ops case.plan)

type outcome = {
  native : string;
  digests : string array;
  alive : bool array;
  leader_idx : int;
  crashes : (int * string) list;
  report : Oracle.report;
  stats : Nvx.stats;
  lifecycle : Lifecycle.report option;
  degraded : string option;
  budget_blown : bool;
  session : Nvx.t;
      (* the finished session, for post-run probes (time travel, tape and
         checkpoint introspection) *)
}

(* Generous: a healthy case finishes in well under a billion cycles, so
   only a genuine livelock (e.g. a spin that never observes progress)
   trips it. Deadlocks park tasks instead and surface as incomplete
   digests. *)
let cycle_budget = 50_000_000_000L

let run_ops case ops =
  let native = P.run_native ~kernel_seed:case.seed ops in
  let eng = E.create () in
  let k = K.create ~seed:case.seed eng in
  let n = case.followers + 1 in
  let obs = Array.init n (fun _ -> P.observations ()) in
  let variants =
    List.init n (fun i ->
        Variant.make
          (Printf.sprintf "v%d" i)
          (Variant.single (fun api ->
               (* A respawned incarnation re-runs the whole program; stale
                  buffers from the quarantined one must not pollute its
                  digest. *)
               if case.lifecycle <> None then P.reset obs.(i);
               P.interpret ~obs:obs.(i) ~path:"0" ops api)))
  in
  let oracle = Oracle.create () in
  let config =
    {
      Config.default with
      Config.ring_size = case.ring_size;
      fault_plan = case.plan;
      oracle = Some oracle;
      lifecycle = case.lifecycle;
      net = case.net;
    }
  in
  let session = Nvx.launch ~config k variants in
  let budget_blown =
    try
      E.run_until_quiescent ~cycle_budget eng;
      false
    with E.Budget_exceeded _ -> true
  in
  {
    native;
    digests = Array.map P.digest obs;
    alive = Array.init n (Nvx.is_alive session);
    leader_idx = Nvx.leader_index session;
    crashes = Nvx.crashes session;
    report = Oracle.report oracle;
    stats = Nvx.stats session;
    lifecycle = Nvx.lifecycle_report session;
    degraded = Nvx.degraded session;
    budget_blown;
    session;
  }

let run_case case = run_ops case (build_program case)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check case out =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if out.budget_blown then fail "liveness: cycle budget exceeded";
  let planned_crash idx =
    List.exists
      (function Fault.Crash_variant c -> c.idx = idx | _ -> false)
      case.plan
  in
  List.iter
    (fun (idx, msg) ->
      if not (planned_crash idx) then
        fail "unplanned crash of variant %d: %s" idx msg
      else if not (contains ~sub:"fault:" msg) then
        fail "variant %d died of %s, not its injection" idx msg)
    out.crashes;
  Array.iteri
    (fun i alive ->
      if alive && out.digests.(i) <> out.native then
        fail "variant %d survived but diverged: %S <> native %S" i
          out.digests.(i) out.native)
    out.alive;
  if Array.exists Fun.id out.alive && not out.alive.(out.leader_idx) then
    fail "leader role held by dead variant %d" out.leader_idx;
  if not (Oracle.ok out.report) then
    List.iter (fail "oracle: %s") out.report.Oracle.violations;
  List.rev !fails

let run_seed seed =
  let case = gen_case seed in
  let out = run_case case in
  (case, out, check case out)

(* One machine-readable object per finished case: the digests and the
   counters a sweep dashboard wants, without parsing prose. The [fails]
   list is whatever check layer the caller ran. *)
let json_of_outcome ~fails case (out : outcome) =
  let esc = Stats.json_escape in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"seed\": %d, \"followers\": %d, \"prog_len\": %d" case.seed
    case.followers case.prog_len;
  add ", \"lifecycle\": %b" (case.lifecycle <> None);
  add ", \"remote_followers\": %d"
    (match case.net with None -> 0 | Some n -> n.Config.remote_followers);
  add ", \"pass\": %b" (fails = []);
  add ", \"native\": \"%s\"" (esc out.native);
  add ", \"digests\": [%s]"
    (String.concat ", "
       (Array.to_list (Array.map (fun d -> "\"" ^ esc d ^ "\"") out.digests)));
  add ", \"alive\": [%s]"
    (String.concat ", "
       (Array.to_list (Array.map string_of_bool out.alive)));
  add ", \"leader_idx\": %d, \"budget_blown\": %b" out.leader_idx
    out.budget_blown;
  add ", \"degraded\": %s"
    (match out.degraded with
    | None -> "null"
    | Some r -> "\"" ^ esc r ^ "\"");
  add ", \"crashes\": [%s]"
    (String.concat ", "
       (List.map
          (fun (idx, msg) ->
            Printf.sprintf "{\"idx\": %d, \"msg\": \"%s\"}" idx (esc msg))
          out.crashes));
  (match out.lifecycle with
  | None -> ()
  | Some r ->
    add
      ", \"lifecycle_report\": {\"lagging\": %d, \"recovered\": %d, \
       \"quarantines\": %d, \"respawns\": %d, \"rejoins\": %d, \
       \"unreachable\": %d, \"deaths\": %d, \"illegal_transitions\": %d}"
      r.Lifecycle.lagging r.Lifecycle.recovered r.Lifecycle.quarantines
      r.Lifecycle.respawns r.Lifecycle.rejoins r.Lifecycle.unreachable
      r.Lifecycle.deaths r.Lifecycle.illegal_transitions);
  (match out.stats.Nvx.bridge with
  | None -> ()
  | Some br ->
    add
      ", \"bridge\": {\"batches\": %d, \"events_forwarded\": %d, \
       \"retransmits\": %d, \"checksum_failures\": %d, \"bytes_on_wire\": \
       %d, \"bytes_saved\": %d, \"detaches\": %d, \"heals\": %d}"
      br.Varan_net.Bridge.batches br.Varan_net.Bridge.events_forwarded
      br.Varan_net.Bridge.retransmits br.Varan_net.Bridge.checksum_failures
      br.Varan_net.Bridge.bytes_on_wire br.Varan_net.Bridge.bytes_saved
      br.Varan_net.Bridge.detaches br.Varan_net.Bridge.heals);
  let rc = out.stats.Nvx.rewrite_cache in
  add
    ", \"rewrite_cache\": {\"hits\": %d, \"misses\": %d, \"rebases\": %d}"
    rc.Varan_binary.Rewrite_cache.hits rc.Varan_binary.Rewrite_cache.misses
    rc.Varan_binary.Rewrite_cache.rebases;
  let cp = out.stats.Nvx.checkpoints in
  add ", \"checkpoints\": {\"taken\": %d, \"restores\": %d, \"delta_events\": %d}"
    cp.Checkpoint.taken cp.Checkpoint.restores cp.Checkpoint.delta_events;
  add ", \"max_observed_lag\": %d" out.stats.Nvx.max_observed_lag;
  add ", \"fails\": [%s]"
    (String.concat ", " (List.map (fun f -> "\"" ^ esc f ^ "\"") fails));
  add "}";
  Buffer.contents b

(* The lifecycle sweep's extra verdicts, on top of {!check}: every
   follower settles — caught back up with a digest identical to native,
   or declared dead after exactly its respawn budget (fewer only when the
   whole session degraded and cancelled the remaining respawns). *)
let check_lifecycle (case : case) (out : outcome) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  (match out.lifecycle with
  | None -> fail "lifecycle: no report despite policy"
  | Some r ->
    if r.Lifecycle.illegal_transitions > 0 then
      fail "lifecycle: %d illegal transition(s)" r.Lifecycle.illegal_transitions;
    let policy =
      match case.lifecycle with Some p -> p | None -> lifecycle_policy
    in
    List.iter
      (fun fr ->
        let idx = fr.Lifecycle.fr_idx in
        match fr.Lifecycle.fr_state with
        | Lifecycle.Healthy | Lifecycle.Lagging ->
          if out.digests.(idx) <> out.native then
            fail "follower %d ended %s but diverged: %S <> native %S" idx
              (Lifecycle.state_name fr.Lifecycle.fr_state)
              out.digests.(idx) out.native
        | Lifecycle.Dead ->
          if
            fr.Lifecycle.fr_restarts <> policy.Lifecycle.max_restarts
            && out.degraded = None
            (* A follower parked across a retention-floor advance dies
               clean rather than replaying a wrong prefix — restart
               budget untouched. *)
            && not (contains ~sub:"truncated" fr.Lifecycle.fr_reason)
          then begin
            (* An unexpected death is exactly what the black box is for:
               dump it and hand the investigator the bundle path, so the
               failure message alone localizes the run. *)
            let pm =
              try
                let fl = Nvx.flight out.session in
                let at =
                  match List.rev (Flight.entries fl) with
                  | e :: _ -> e.Flight.ev_at
                  | [] -> 0L
                in
                Flight.dump fl ~at ~counters:(Nvx.counters out.session)
                  ~reason:
                    (Printf.sprintf "unexpected Dead of follower %d: %s" idx
                       fr.Lifecycle.fr_reason)
              with Sys_error e -> "unwritable: " ^ e
            in
            fail
              "follower %d dead after %d respawn(s), budget %d, and no \
               degradation to excuse it (post-mortem: %s)"
              idx fr.Lifecycle.fr_restarts policy.Lifecycle.max_restarts pm
          end
        | Lifecycle.Unreachable ->
          (* A terminal park is legal: the partition simply never healed
             before the program ended (or the session degraded). Its
             digest is void — the variant was killed mid-run. *)
          ()
        | (Lifecycle.Quarantined | Lifecycle.Respawning | Lifecycle.Catching_up)
          as st ->
          fail "follower %d never settled: stuck %s (%s)" idx
            (Lifecycle.state_name st) fr.Lifecycle.fr_reason)
      r.Lifecycle.followers);
  if out.report.Oracle.gate_waits_on_quarantined > 0 then
    fail "leader gate waited on a quarantined consumer %d time(s)"
      out.report.Oracle.gate_waits_on_quarantined;
  List.rev !fails

let run_lifecycle_seed seed =
  let case = gen_lifecycle_case seed in
  let out = run_case case in
  (case, out, check case out @ check_lifecycle case out)

(* The distributed sweep's extra verdicts, on top of {!check} and
   {!check_lifecycle}: the bridge ran (stats exist), link faults never
   corrupted a frame the checksum accepted, an [Unreachable] park needs
   a link fault to blame, and a session with events to mirror moved at
   least one batch. Digest cleanliness of surviving remote followers is
   already covered by {!check} (they are ordinary alive variants). *)
let check_net (case : case) (out : outcome) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  (match out.stats.Nvx.bridge with
  | None -> fail "net: no bridge stats despite net config"
  | Some b ->
    if b.Varan_net.Bridge.checksum_failures > 0 then
      fail "net: %d frame(s) passed to the mirror with a bad checksum"
        b.Varan_net.Bridge.checksum_failures;
    if
      b.Varan_net.Bridge.batches = 0
      && out.stats.Nvx.rings.(0).Varan_ringbuf.Ring.publishes > 0
      && b.Varan_net.Bridge.detaches = 0
    then
      fail "net: leader published %d events but the bridge shipped nothing"
        out.stats.Nvx.rings.(0).Varan_ringbuf.Ring.publishes);
  (match out.lifecycle with
  | Some r ->
    List.iter
      (fun fr ->
        if
          fr.Lifecycle.fr_state = Lifecycle.Unreachable
          && not (Fault.has_link_faults case.plan)
        then
          fail "net: follower %d unreachable without a link fault (%s)"
            fr.Lifecycle.fr_idx fr.Lifecycle.fr_reason)
      r.Lifecycle.followers
  | None -> ());
  List.rev !fails

let run_net_seed seed =
  let case = gen_net_case seed in
  let out = run_case case in
  (case, out, check case out @ check_lifecycle case out @ check_net case out)

(* ------------------------------------------------------------------ *)
(* Contended-futex torture (per-tid lanes, lock-order replay)           *)
(* ------------------------------------------------------------------ *)

module Api = Varan_kernel.Api

type futex_case = {
  f_seed : int;
  f_threads : int;
  f_locks : int;
  f_rounds : int;
  f_followers : int;
  f_ring_size : int;
  f_plan : Fault.t;
}

(* Thread counts deliberately include 64: with per-tid lanes the whole
   variant must stay digest-clean at that scale. Crashes are
   follower-only here; leader-crash promotion at scale has a directed
   test. *)
let gen_futex_case seed =
  let rng = Prng.create (seed lxor 0xF07EC) in
  let threads = [| 4; 8; 16; 64 |].(Prng.int rng 4) in
  let locks = 1 + Prng.int rng 4 in
  let rounds = 3 + Prng.int rng 10 in
  let followers = 1 + Prng.int rng 2 in
  let plan =
    if Prng.int rng 2 = 0 then
      [
        Fault.Crash_variant
          {
            idx = 1 + Prng.int rng followers;
            at_seq = 1 + Prng.int rng (threads * rounds);
          };
      ]
    else []
  in
  {
    f_seed = seed;
    f_threads = threads;
    f_locks = locks;
    f_rounds = rounds;
    f_followers = followers;
    f_ring_size = 16;
    f_plan = plan;
  }

let describe_futex_case fc =
  Printf.sprintf "seed=%d threads=%d locks=%d rounds=%d followers=%d plan=[%s]"
    fc.f_seed fc.f_threads fc.f_locks fc.f_rounds fc.f_followers
    (Fault.to_string fc.f_plan)

type futex_outcome = {
  fo_digests : string array;
  fo_alive : bool array;
  fo_leader_idx : int;
  fo_crashes : (int * string) list;
  fo_report : Oracle.report;
  fo_budget_blown : bool;
}

(* Every thread loops lock → streamed getpid inside the critical section
   → unlock over a shared lock set, logging the acquisition index each
   lock returns. The digest is the per-thread logs concatenated in tid
   order: equal digests mean the follower reproduced the leader's global
   lock-acquisition order, thread by thread. *)
let run_futex_case ?leader_crash_at fc =
  let eng = E.create () in
  let k = K.create ~seed:fc.f_seed eng in
  let n = fc.f_followers + 1 in
  let logs =
    Array.init n (fun _ ->
        Array.init fc.f_threads (fun _ -> Buffer.create 64))
  in
  let body i ~unit_idx api =
    let b = logs.(i).(unit_idx) in
    for r = 0 to fc.f_rounds - 1 do
      let l = (unit_idx + r) mod fc.f_locks in
      let acq = Api.futex_lock api (0x2000 + l) in
      Buffer.add_string b (Printf.sprintf "%d:%d=%d;" r l acq);
      (* A streamed, non-ordering call inside the critical section: with
         lanes it replays concurrently, between the lock barriers. *)
      ignore (Api.getpid api);
      Api.compute api 150;
      ignore (Api.futex_unlock api (0x2000 + l))
    done
  in
  let plan =
    match leader_crash_at with
    | Some at_seq -> Fault.Crash_variant { idx = 0; at_seq } :: fc.f_plan
    | None -> fc.f_plan
  in
  let variants =
    List.init n (fun i ->
        Variant.make
          (Printf.sprintf "v%d" i)
          {
            Variant.units = fc.f_threads;
            unit_kind = Variant.Thread;
            body = body i;
          })
  in
  let oracle = Oracle.create () in
  let config =
    {
      Config.default with
      Config.ring_size = fc.f_ring_size;
      fault_plan = plan;
      oracle = Some oracle;
    }
  in
  let session = Nvx.launch ~config k variants in
  let fo_budget_blown =
    try
      E.run_until_quiescent ~cycle_budget eng;
      false
    with E.Budget_exceeded _ -> true
  in
  let digest i =
    let all = Buffer.create 256 in
    Array.iter
      (fun b ->
        Buffer.add_buffer all b;
        Buffer.add_char all '|')
      logs.(i);
    Digest.to_hex (Digest.string (Buffer.contents all))
  in
  {
    fo_digests = Array.init n digest;
    fo_alive = Array.init n (Nvx.is_alive session);
    fo_leader_idx = Nvx.leader_index session;
    fo_crashes = Nvx.crashes session;
    fo_report = Oracle.report oracle;
    fo_budget_blown;
  }

(* The futex verdicts: every alive variant carries the (current)
   leader's digest — native is no yardstick here, because the monitor's
   costs reshuffle the native lock order. *)
let check_futex ?(planned_leader_crash = false) (fc : futex_case)
    (out : futex_outcome) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if out.fo_budget_blown then fail "liveness: cycle budget exceeded";
  let planned_crash idx =
    (planned_leader_crash && idx = 0)
    || List.exists
         (function Fault.Crash_variant c -> c.idx = idx | _ -> false)
         fc.f_plan
  in
  List.iter
    (fun (idx, msg) ->
      if not (planned_crash idx) then
        fail "unplanned crash of variant %d: %s" idx msg
      else if not (contains ~sub:"fault:" msg) then
        fail "variant %d died of %s, not its injection" idx msg)
    out.fo_crashes;
  if Array.exists Fun.id out.fo_alive then begin
    if not out.fo_alive.(out.fo_leader_idx) then
      fail "leader role held by dead variant %d" out.fo_leader_idx;
    let leader_digest = out.fo_digests.(out.fo_leader_idx) in
    Array.iteri
      (fun i alive ->
        if alive && out.fo_digests.(i) <> leader_digest then
          fail "variant %d diverged from the leader's lock order: %S <> %S" i
            out.fo_digests.(i) leader_digest)
      out.fo_alive
  end;
  if not (Oracle.ok out.fo_report) then
    List.iter (fail "oracle: %s") out.fo_report.Oracle.violations;
  List.rev !fails

let run_futex_seed seed =
  let fc = gen_futex_case seed in
  let out = run_futex_case fc in
  (fc, out, check_futex fc out)

(* ------------------------------------------------------------------ *)
(* Sharded-pool torture (per-shard digest isolation)                    *)
(* ------------------------------------------------------------------ *)

module Shard = Varan_nvx.Shard
module Rewrite_cache = Varan_binary.Rewrite_cache

type shard_case = {
  sc_seed : int;
  sc_shards : int;
  sc_followers : int; (* per shard *)
  sc_prog_len : int;
}

let gen_shard_case seed =
  let rng = Prng.create (seed lxor 0x5AADED) in
  {
    sc_seed = seed;
    sc_shards = 2 + Prng.int rng 3;
    sc_followers = 1 + Prng.int rng 2;
    sc_prog_len = 8 + Prng.int rng 25;
  }

let describe_shard_case c =
  Printf.sprintf "seed=%d shards=%d followers=%d len=%d" c.sc_seed c.sc_shards
    c.sc_followers c.sc_prog_len

(* Each shard runs its own program, from a stream salted with the shard
   id. Entropy ops are sanitized away: the pooled shards share one
   kernel, so their [Getrandom] draws would interleave — and interleave
   differently than each shard's solo native run — for reasons that have
   nothing to do with the monitor. *)
let shard_program c s =
  let rng = Prng.create (c.sc_seed lxor 0x5AADED lxor ((s + 1) * 0x9E3779)) in
  List.map P.sanitize_for_fork (P.gen_ops rng c.sc_prog_len)

let shard_path s = Printf.sprintf "s%d" s

(* Like [P.run_native] but under the shard's own observation path, so the
   digest (which embeds the path) and the /tmp namespace both line up
   with the pooled run's. *)
let native_shard_digest ~kernel_seed ~path ops =
  let eng = E.create () in
  let k = K.create ~seed:kernel_seed eng in
  let obs = P.observations () in
  let proc = K.new_proc k "native" in
  let tid =
    E.spawn eng (fun () -> P.interpret ~obs ~path ops (Api.direct k proc))
  in
  K.register_task k proc tid;
  E.run_until_quiescent eng;
  P.digest obs

type shard_outcome = {
  so_natives : string array; (* shard-local native digests *)
  so_digests : string array array; (* [shard].[variant] *)
  so_alive : bool array array;
  so_zygote_forks : int;
  so_rewrite : Rewrite_cache.stats;
  so_budget_blown : bool;
}

let run_shard_case c =
  let progs = Array.init c.sc_shards (shard_program c) in
  (* Reference digests first: each shard's program alone on a fresh
     kernel with the pooled run's seed. *)
  let so_natives =
    Array.mapi
      (fun s ops ->
        native_shard_digest ~kernel_seed:c.sc_seed ~path:(shard_path s) ops)
      progs
  in
  let eng = E.create () in
  let k = K.create ~seed:c.sc_seed eng in
  let n = c.sc_followers + 1 in
  let obs =
    Array.init c.sc_shards (fun _ -> Array.init n (fun _ -> P.observations ()))
  in
  let variants_of s =
    List.init n (fun i ->
        Variant.make
          (Printf.sprintf "s%d.v%d" s i)
          (Variant.single (fun api ->
               P.interpret ~obs:obs.(s).(i) ~path:(shard_path s) progs.(s) api)))
  in
  let pool = Shard.launch k ~shards:c.sc_shards ~variants_of in
  let so_budget_blown =
    try
      E.run_until_quiescent ~cycle_budget eng;
      false
    with E.Budget_exceeded _ -> true
  in
  {
    so_natives;
    so_digests = Array.map (Array.map P.digest) obs;
    so_alive =
      Array.init c.sc_shards (fun s ->
          Array.init n (Nvx.is_alive (Shard.session pool s)));
    so_zygote_forks = Shard.zygote_forks pool;
    so_rewrite = Rewrite_cache.stats (Nvx.shared_cache (Shard.hub pool));
    so_budget_blown;
  }

(* The sharding verdicts: every variant of every shard is alive (no
   faults are injected here) and carries exactly its own shard's native
   digest — proof that co-residency on one kernel, one zygote and one
   rewrite cache leaks nothing across shard boundaries — and the pool
   really spawned everything through the one shared zygote. *)
let check_shard (c : shard_case) (out : shard_outcome) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if out.so_budget_blown then fail "liveness: cycle budget exceeded";
  Array.iteri
    (fun s digests ->
      Array.iteri
        (fun i d ->
          if not out.so_alive.(s).(i) then
            fail "shard %d variant %d died without a fault plan" s i
          else if d <> out.so_natives.(s) then
            fail "shard %d variant %d diverged from its native run: %S <> %S"
              s i d out.so_natives.(s))
        digests)
    out.so_digests;
  let expected_forks = c.sc_shards * (c.sc_followers + 1) in
  if out.so_zygote_forks <> expected_forks then
    fail "shared zygote served %d fork(s), expected %d" out.so_zygote_forks
      expected_forks;
  List.rev !fails

let run_shard_seed seed =
  let c = gen_shard_case seed in
  let out = run_shard_case c in
  (c, out, check_shard c out)
