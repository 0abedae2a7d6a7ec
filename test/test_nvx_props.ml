(* End-to-end property test of the NVX core: random syscall programs are
   executed natively and under VARAN with several followers; every
   observable result (return values, bytes read, clock values — everything
   except pids) must be identical in the native run, the leader and every
   follower. This is the semantic heart of N-version execution: the
   monitor makes N processes behave as one.

   The program language and interpreter live in Gen_programs, shared with
   the fault-injection torture suite (test_fault). *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Prng = Varan_util.Prng
module P = Gen_programs

let run_checked = Checked.run_checked

let run_nvx ~kernel_seed ~followers ~config ops =
  let eng = E.create () in
  let k = K.create ~seed:kernel_seed eng in
  let n = followers + 1 in
  let obs = Array.init n (fun _ -> P.observations ()) in
  let variants =
    List.init n (fun i ->
        Variant.make
          (Printf.sprintf "v%d" i)
          (Variant.single (fun api -> P.interpret ~obs:obs.(i) ~path:"0" ops api)))
  in
  let session = Nvx.launch ~config k variants in
  run_checked ~quiescent:true eng;
  (Array.map P.digest obs, Nvx.crashes session)

let arb_program =
  QCheck.make
    ~print:(fun (seed, len) -> Printf.sprintf "seed=%d len=%d" seed len)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_range 5 60))

let equivalence_prop ~config ~followers (seed, len) =
  let ops = P.gen_ops (Prng.create seed) len in
  let native = P.run_native ~kernel_seed:seed ops in
  let outs, crashes = run_nvx ~kernel_seed:seed ~followers ~config ops in
  crashes = []
  && Array.for_all (fun o -> o = native) outs
  && String.length native > 0

let prop_nvx_matches_native =
  QCheck.Test.make ~name:"NVX(2 followers) == native, observably" ~count:120
    arb_program
    (equivalence_prop ~config:Config.default ~followers:2)

let prop_nvx_matches_native_busy_wait =
  QCheck.Test.make ~name:"busy-wait config equivalent" ~count:40 arb_program
    (equivalence_prop
       ~config:{ Config.default with Config.follower_wait = Config.Busy_wait }
       ~followers:1)

let prop_nvx_matches_native_pump =
  QCheck.Test.make ~name:"event-pump config equivalent" ~count:40 arb_program
    (equivalence_prop
       ~config:{ Config.default with Config.streaming = Config.Event_pump }
       ~followers:2)

let prop_nvx_matches_native_tiny_ring =
  QCheck.Test.make ~name:"single-slot ring equivalent" ~count:40 arb_program
    (equivalence_prop
       ~config:(Config.with_ring_size Config.default 1)
       ~followers:1)

let prop_nvx_matches_native_trap_only =
  QCheck.Test.make ~name:"trap-only interception equivalent" ~count:40
    arb_program
    (equivalence_prop
       ~config:{ Config.default with Config.interception = Config.Trap_only }
       ~followers:1)

let () =
  Alcotest.run "varan_nvx_props"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_nvx_matches_native;
          QCheck_alcotest.to_alcotest prop_nvx_matches_native_busy_wait;
          QCheck_alcotest.to_alcotest prop_nvx_matches_native_pump;
          QCheck_alcotest.to_alcotest prop_nvx_matches_native_tiny_ring;
          QCheck_alcotest.to_alcotest prop_nvx_matches_native_trap_only;
        ] );
    ]
