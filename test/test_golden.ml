(* Golden virtual-cost counters. Each configuration drives one of the
   monitor's decisions end to end — the syscall, signal and fork
   publishes, tuple setup for forked processes, respawn / eviction /
   death under the lifecycle manager, the remote-follower mirror ring
   with link partitions and heals, the event-pump ablation and per-tid
   lanes — and pins every variant's published/consumed counts, stall
   and wait charges, syscall cycles and dispatch mix, plus the final
   virtual clock. The values are exact: any change to a virtual-cycle
   charge anywhere on these paths changes a line below. A deliberate
   cost-model change must update them in the same commit and say why. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Flags = Varan_kernel.Flags
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Lifecycle = Varan_nvx.Lifecycle
module Fault = Varan_fault.Plan
module Oracle = Varan_trace.Oracle
module H = Varan_torture.Harness
module P = Varan_torture.Programs
module Catalog = Varan_workloads.Catalog
module Driver = Varan_workloads.Driver
module Workload = Varan_workloads.Workload

let run_checked = Checked.run_checked

let fingerprint (st : Nvx.stats) ~clock =
  let b = Buffer.create 512 in
  Array.iter
    (fun (v : Nvx.variant_stats) ->
      Printf.bprintf b
        "%s inc=%d pub=%d con=%d sb=%d sc=%Ld wc=%Ld sys=%Ld j=%d t=%d v=%d\n"
        v.Nvx.vs_name v.Nvx.vs_incarnation v.Nvx.vs_events_published
        v.Nvx.vs_events_consumed v.Nvx.vs_stall_blocks v.Nvx.vs_stall_cycles
        v.Nvx.vs_wait_charge_cycles v.Nvx.vs_sys_cycles
        v.Nvx.vs_jump_dispatches v.Nvx.vs_trap_dispatches
        v.Nvx.vs_vdso_dispatches)
    st.Nvx.variants;
  Printf.bprintf b "clock=%Ld" clock;
  Buffer.contents b

(* The torture harness's NVX run ({!H.run_ops}), minus the native
   reference run, on an engine this test owns so the final clock is
   observable. *)
let run_torture_case (case : H.case) ops =
  let eng = E.create () in
  let k = K.create ~seed:case.H.seed eng in
  let n = case.H.followers + 1 in
  let obs = Array.init n (fun _ -> P.observations ()) in
  let variants =
    List.init n (fun i ->
        Variant.make
          (Printf.sprintf "v%d" i)
          (Variant.single (fun api ->
               if case.H.lifecycle <> None then P.reset obs.(i);
               P.interpret ~obs:obs.(i) ~path:"0" ops api)))
  in
  let config =
    {
      Config.default with
      Config.ring_size = case.H.ring_size;
      fault_plan = case.H.plan;
      oracle = Some (Oracle.create ());
      lifecycle = case.H.lifecycle;
      net = case.H.net;
    }
  in
  let session = Nvx.launch ~config k variants in
  run_checked ~quiescent:true ~cycle_budget:50_000_000_000L eng;
  fingerprint (Nvx.stats session) ~clock:(E.now eng)

let directed ?lifecycle ~seed ~followers plan =
  {
    H.seed;
    followers;
    prog_len = 0;
    ring_size = 8;
    plan;
    lifecycle;
    net = None;
  }

let mixed_ops n =
  P.Install_handler :: P.Open "/dev/zero"
  :: List.concat
       (List.init n (fun i ->
            [
              P.Read_newest 600;
              P.Write_newest 300;
              P.Stat "/dev/null";
              P.Create_tmp (i mod 4);
              P.Time;
            ]))

let run_workload config w =
  let m, st, _ = Driver.run_with_full_session w ~followers:2 ~config in
  fingerprint st ~clock:m.Driver.duration_cycles

(* ---- configurations -------------------------------------------------- *)

let redis () = run_workload Config.default Catalog.redis

(* The burst is posted at the fork's leader hook, with no syscall in
   between to deliver it natively, so both signals stream as Ev_signal
   events. *)
let signals () =
  run_torture_case
    (directed ~seed:201 ~followers:2
       [ Fault.Signal_burst { at_seq = 3; signo = 2; count = 2 } ])
    (P.Install_handler :: P.Getuid :: P.Getuid
    :: P.Fork [ P.Getuid; P.Getuid ]
    :: mixed_ops 4)

(* Two process units, each forking a child that forks a grandchild: every
   fork allocates a tuple and streams an Ev_fork. *)
let process_forks () =
  let eng = E.create () in
  let k = K.create ~seed:7 eng in
  let rec work api depth =
    let fd = Result.get_ok (Api.openf api "/dev/null" Flags.o_wronly) in
    for i = 1 to 3 do
      Api.compute api (700 * (depth + i));
      ignore (Api.write_str api fd "w")
    done;
    if depth < 2 then ignore (Api.fork api (fun child -> work child (depth + 1)));
    ignore (Api.getpid api);
    ignore (Api.close api fd)
  in
  let program =
    {
      Variant.units = 2;
      unit_kind = Variant.Process;
      body = (fun ~unit_idx:_ api -> work api 0);
    }
  in
  let session =
    Nvx.launch k
      (List.init 3 (fun i -> Variant.make (Printf.sprintf "p%d" i) program))
  in
  run_checked ~quiescent:true eng;
  fingerprint (Nvx.stats session) ~clock:(E.now eng)

let lifecycle_checkpoint () =
  let case = H.gen_lifecycle_case 48881 in
  let policy =
    {
      (Option.get case.H.lifecycle) with
      Lifecycle.checkpoint_interval = 60_000;
    }
  in
  let case = { case with H.lifecycle = Some policy } in
  run_torture_case case (H.build_program case)

let lifecycle_death () =
  let policy =
    {
      H.lifecycle_policy with
      Lifecycle.max_restarts = 1;
      checkpoint_interval = 60_000;
    }
  in
  run_torture_case
    (directed ~lifecycle:policy ~seed:112 ~followers:2
       [
         Fault.Stall_follower { idx = 1; at_seq = 3; delay = 2_000_000 };
         Fault.Stall_follower { idx = 1; at_seq = 9; delay = 2_000_000 };
         Fault.Crash_variant { idx = 2; at_seq = 20 };
       ])
    (mixed_ops 10)

let net seed () =
  let case = H.gen_net_case seed in
  run_torture_case case (H.build_program case)

let event_pump () =
  run_workload
    { Config.default with Config.streaming = Config.Event_pump }
    Catalog.redis

let lanes () =
  let w =
    Catalog.thread_grid ~name:"grid8" ~threads:8 ~locks:2 ~rounds:12
      ~code_seed:5
  in
  let eng = E.create () in
  let k = K.create ~seed:7 eng in
  let session =
    Nvx.launch
      ~config:{ Config.default with Config.ring_size = 64 }
      k
      (List.init 3 (fun i -> Workload.fresh_variant w (Printf.sprintf "g%d" i)))
  in
  run_checked ~quiescent:true eng;
  fingerprint (Nvx.stats session) ~clock:(E.now eng)

(* ---- expected values ------------------------------------------------- *)

let cases =
  [
    ( "redis",
      redis,
      {|Redis.v0 inc=0 pub=4476 con=0 sb=0 sc=0 wc=0 sys=9065592 j=3171 t=305 v=1000
Redis.v1 inc=0 pub=0 con=4476 sb=5714 sc=7081451 wc=239040 sys=8995378 j=3171 t=305 v=1000
Redis.v2 inc=0 pub=0 con=4476 sb=5692 sc=7014379 wc=232920 sys=8922186 j=3171 t=305 v=1000
clock=17834604|} );
    ( "signals",
      signals,
      {|v0 inc=0 pub=30 con=0 sb=0 sc=0 wc=0 sys=116259 j=21 t=2 v=4
v1 inc=0 pub=0 con=30 sb=8 sc=53611 wc=320 sys=77353 j=21 t=2 v=4
v2 inc=0 pub=0 con=30 sb=5 sc=33650 wc=200 sys=77353 j=21 t=2 v=4
clock=177660|} );
    ( "process_forks",
      process_forks,
      {|p0 inc=0 pub=40 con=0 sb=0 sc=0 wc=0 sys=142181 j=33 t=3 v=0
p1 inc=0 pub=0 con=40 sb=18 sc=204438 wc=720 sys=121223 j=33 t=3 v=0
p2 inc=0 pub=0 con=40 sb=10 sc=164596 wc=400 sys=121223 j=33 t=3 v=0
clock=277004|} );
    ( "lifecycle_checkpoint",
      lifecycle_checkpoint,
      {|v0 inc=0 pub=51 con=0 sb=0 sc=0 wc=0 sys=302003 j=42 t=4 v=5
v1 inc=1 pub=0 con=61 sb=8 sc=32376 wc=320 sys=132378 j=52 t=5 v=5
v2 inc=1 pub=0 con=64 sb=22 sc=102277 wc=880 sys=207581 j=52 t=5 v=8
clock=798646|} );
    ( "lifecycle_death",
      lifecycle_death,
      {|v0 inc=0 pub=52 con=0 sb=0 sc=0 wc=0 sys=515716 j=38 t=4 v=10
v1 inc=1 pub=0 con=12 sb=0 sc=0 wc=0 sys=27417 j=12 t=1 v=1
v2 inc=1 pub=0 con=60 sb=12 sc=232371 wc=480 sys=348352 j=45 t=5 v=11
clock=2300962|} );
    ( "net 48882",
      net 48882,
      {|v0 inc=0 pub=40 con=0 sb=0 sc=0 wc=0 sys=393995 j=33 t=3 v=4
v1 inc=0 pub=0 con=40 sb=26 sc=334415 wc=1040 sys=374061 j=33 t=3 v=4
v2 inc=1 pub=0 con=42 sb=5 sc=19658 wc=200 sys=38648 j=36 t=3 v=4
v3 inc=1 pub=0 con=44 sb=0 sc=0 wc=0 sys=47536 j=37 t=4 v=4
clock=1305115|} );
    ( "net 48888",
      net 48888,
      {|v0 inc=0 pub=41 con=0 sb=0 sc=0 wc=0 sys=399317 j=33 t=3 v=5
v1 inc=1 pub=0 con=43 sb=27 sc=332248 wc=1080 sys=378956 j=35 t=3 v=6
v2 inc=0 pub=0 con=41 sb=19 sc=313226 wc=760 sys=360623 j=33 t=3 v=5
v3 inc=1 pub=0 con=52 sb=0 sc=0 wc=0 sys=53916 j=43 t=4 v=6
clock=1350284|} );
    ( "event_pump",
      event_pump,
      {|Redis.v0 inc=0 pub=4476 con=0 sb=0 sc=0 wc=0 sys=9065592 j=3171 t=305 v=1000
Redis.v1 inc=0 pub=0 con=4476 sb=5465 sc=7086921 wc=229080 sys=8997033 j=3171 t=305 v=1000
Redis.v2 inc=0 pub=0 con=4476 sb=5449 sc=7021573 wc=223200 sys=8924497 j=3171 t=305 v=1000
clock=17834604|} );
    ( "lanes",
      lanes,
      {|g0 inc=0 pub=192 con=0 sb=0 sc=0 wc=0 sys=723584 j=181 t=11 v=0
g1 inc=0 pub=0 con=192 sb=1423 sc=432825 wc=67400 sys=564760 j=181 t=11 v=0
g2 inc=0 pub=0 con=192 sb=1045 sc=297777 wc=41800 sys=404112 j=181 t=11 v=0
clock=113195|} );
  ]

let () =
  Alcotest.run "varan_golden"
    [
      ( "golden",
        List.map
          (fun (name, f, expected) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name expected (f ())))
          cases );
    ]
