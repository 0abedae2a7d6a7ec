(* Tests for the discrete-event engine: virtual time, ordering, condition
   variables, timeouts, kill semantics and deadlock detection. *)

module E = Varan_sim.Engine

let run_checked = Checked.run_checked

let test_consume_advances_time () =
  let eng = E.create () in
  let final = ref 0L in
  ignore
    (E.spawn eng ~name:"a" (fun () ->
         E.consume 100;
         E.consume 50;
         final := E.now_cycles ()));
  run_checked eng;
  Alcotest.(check int64) "local time" 150L !final;
  Alcotest.(check int64) "global time" 150L (E.now eng)

let test_zero_consume_is_free () =
  let eng = E.create () in
  ignore (E.spawn eng (fun () -> E.consume 0));
  run_checked eng;
  Alcotest.(check int64) "no time passes" 0L (E.now eng)

let test_interleaving_by_time () =
  let eng = E.create () in
  let log = ref [] in
  let emit tag = log := tag :: !log in
  ignore
    (E.spawn eng ~name:"slow" (fun () ->
         E.consume 100;
         emit "slow1";
         E.consume 100;
         emit "slow2"));
  ignore
    (E.spawn eng ~name:"fast" (fun () ->
         E.consume 30;
         emit "fast1";
         E.consume 30;
         emit "fast2"));
  run_checked eng;
  Alcotest.(check (list string))
    "events ordered by virtual time"
    [ "fast1"; "fast2"; "slow1"; "slow2" ]
    (List.rev !log)

let test_fifo_tie_break () =
  let eng = E.create () in
  let log = ref [] in
  ignore (E.spawn eng ~name:"first" (fun () -> log := "first" :: !log));
  ignore (E.spawn eng ~name:"second" (fun () -> log := "second" :: !log));
  run_checked eng;
  Alcotest.(check (list string))
    "creation order on ties" [ "first"; "second" ] (List.rev !log)

let test_sleep () =
  let eng = E.create () in
  let woke = ref 0L in
  ignore
    (E.spawn eng (fun () ->
         E.consume 10;
         E.sleep 90;
         woke := E.now_cycles ()));
  run_checked eng;
  Alcotest.(check int64) "sleep adds to clock" 100L !woke

let test_cond_signal () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let wake_time = ref 0L in
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         E.Cond.wait c;
         wake_time := E.now_cycles ()));
  ignore
    (E.spawn eng ~name:"signaller" (fun () ->
         E.consume 500;
         E.Cond.signal c));
  run_checked eng;
  Alcotest.(check int64) "woken at signaller's time" 500L !wake_time

let test_cond_broadcast () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (E.spawn eng (fun () ->
           E.Cond.wait c;
           incr count))
  done;
  ignore
    (E.spawn eng (fun () ->
         E.consume 10;
         E.Cond.broadcast c));
  run_checked eng;
  Alcotest.(check int) "all woken" 5 !count

let test_cond_signal_wakes_one () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let count = ref 0 in
  for _ = 1 to 3 do
    ignore
      (E.spawn eng (fun () ->
           E.Cond.wait c;
           incr count))
  done;
  ignore
    (E.spawn eng (fun () ->
         E.consume 10;
         E.Cond.signal c));
  run_checked ~quiescent:true eng;
  Alcotest.(check int) "exactly one woken" 1 !count;
  Alcotest.(check int) "two still waiting" 2 (E.Cond.waiters c)

let test_wait_timeout_expires () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let result = ref true in
  let woke = ref 0L in
  ignore
    (E.spawn eng (fun () ->
         result := E.Cond.wait_timeout c 250;
         woke := E.now_cycles ()));
  run_checked eng;
  Alcotest.(check bool) "timed out" false !result;
  Alcotest.(check int64) "at deadline" 250L !woke

let test_wait_timeout_signalled () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let result = ref false in
  ignore (E.spawn eng (fun () -> result := E.Cond.wait_timeout c 1_000));
  ignore
    (E.spawn eng (fun () ->
         E.consume 100;
         E.Cond.signal c));
  run_checked eng;
  Alcotest.(check bool) "signalled before deadline" true !result

(* One task through every [wait_timeout] outcome in turn: signalled
   ([true]), expired ([false]) right after a signalled one, signalled
   again, then killed while parked, which unwinds with [Killed] and
   leaves its cancelled deadline to surface without dispatching. *)
let test_wait_timeout_outcomes () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let results = ref [] and unwound = ref false in
  let note r = results := (r, E.clock ()) :: !results in
  let waiter =
    E.spawn eng ~name:"waiter" (fun () ->
        note (E.Cond.wait_timeout c 1_000);
        note (E.Cond.wait_timeout c 50);
        note (E.Cond.wait_timeout c 100);
        match E.Cond.wait_timeout c 10_000 with
        | r -> note r
        | exception E.Killed ->
          unwound := true;
          raise E.Killed)
  in
  ignore
    (E.spawn eng ~name:"helper" (fun () ->
         E.consume 100;
         E.Cond.signal c;
         E.consume 100;
         E.Cond.signal c;
         E.consume 100;
         E.kill_here waiter));
  run_checked eng;
  Alcotest.(check (list (pair bool int)))
    "results at their times"
    [ (true, 100); (false, 150); (true, 200) ]
    (List.rev !results);
  Alcotest.(check bool) "kill unwinds the parked wait" true !unwound;
  Alcotest.(check bool) "waiter dead" false (E.is_alive eng waiter);
  Alcotest.(check int) "no failures" 0 (List.length (E.failures eng));
  Alcotest.(check int64) "the cancelled deadline never dispatched" 300L
    (E.now eng)

(* A waiter that timed out is no longer queued on the first cond: after
   it parks on a second cond, only that cond wakes it. *)
let test_timeout_then_second_cond () =
  let eng = E.create () in
  let c1 = E.Cond.create "c1" and c2 = E.Cond.create "c2" in
  let log = ref [] in
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         let signalled = E.Cond.wait_timeout c1 10 in
         log := ("timeout", signalled, E.clock ()) :: !log;
         E.Cond.wait c2;
         log := ("c2", true, E.clock ()) :: !log));
  ignore
    (E.spawn eng ~name:"signaller" (fun () ->
         E.consume 20;
         Alcotest.(check int)
           "c1 empty after the timeout" 0 (E.Cond.waiters c1);
         Alcotest.(check int) "parked on c2" 1 (E.Cond.waiters c2);
         E.Cond.signal c1;
         E.Cond.broadcast c1;
         E.consume 10;
         E.Cond.signal c2));
  run_checked eng;
  Alcotest.(check (list (triple string bool int)))
    "woken by the deadline, then by c2 only"
    [ ("timeout", false, 10); ("c2", true, 30) ]
    (List.rev !log)

(* Killing a waiter in the middle of the queue leaves the others in FIFO
   order, for signal and broadcast alike. *)
let test_kill_mid_queue_keeps_fifo () =
  let order ~broadcast =
    let eng = E.create () in
    let c = E.Cond.create "c" in
    let log = ref [] in
    let waiters =
      List.map
        (fun name ->
          E.spawn eng ~name (fun () ->
              E.Cond.wait c;
              log := name :: !log))
        [ "a"; "b"; "c"; "d"; "e" ]
    in
    ignore
      (E.spawn eng ~name:"conductor" (fun () ->
           E.consume 10;
           E.kill_here (List.nth waiters 2);
           Alcotest.(check int) "four left" 4 (E.Cond.waiters c);
           if broadcast then E.Cond.broadcast c
           else
             for _ = 1 to 4 do
               E.Cond.signal c;
               E.consume 1
             done));
    run_checked eng;
    List.rev !log
  in
  Alcotest.(check (list string))
    "signal order" [ "a"; "b"; "d"; "e" ] (order ~broadcast:false);
  Alcotest.(check (list string))
    "broadcast order" [ "a"; "b"; "d"; "e" ] (order ~broadcast:true)

(* [Cond.waiters] counts exactly the parked, unclaimed waiters through
   every kind of claim. *)
let test_waiters_exact () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let seen = ref [] in
  let at label = seen := (label, E.Cond.waiters c) :: !seen in
  for _ = 1 to 4 do
    ignore (E.spawn eng (fun () -> E.Cond.wait c))
  done;
  ignore (E.spawn eng (fun () -> ignore (E.Cond.wait_timeout c 5)));
  let victim = E.spawn eng (fun () -> ignore (E.Cond.wait_timeout c 100)) in
  ignore
    (E.spawn eng ~name:"conductor" (fun () ->
         at "parked";
         E.consume 10;
         at "after timeout";
         E.Cond.signal c;
         at "after signal";
         E.kill_here victim;
         at "after kill";
         E.Cond.broadcast c;
         at "after broadcast";
         E.Cond.signal c;
         at "signal into nobody"));
  run_checked eng;
  Alcotest.(check (list (pair string int)))
    "waiter count"
    [
      ("parked", 6);
      ("after timeout", 5);
      ("after signal", 4);
      ("after kill", 3);
      ("after broadcast", 0);
      ("signal into nobody", 0);
    ]
    (List.rev !seen)

let test_deadlock_detection () =
  let eng = E.create () in
  let c = E.Cond.create "never" in
  ignore (E.spawn eng ~name:"stuck" (fun () -> E.Cond.wait c));
  match E.run eng with
  | () -> Alcotest.fail "expected Deadlock"
  | exception E.Deadlock names ->
    Alcotest.(check (list string)) "stuck task reported" [ "stuck" ] names

let test_kill_blocked_task () =
  let eng = E.create () in
  let c = E.Cond.create "never" in
  let cleaned = ref false in
  let victim =
    E.spawn eng ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> E.Cond.wait c))
  in
  ignore
    (E.spawn eng ~name:"killer" (fun () ->
         E.consume 10;
         E.kill_here victim));
  run_checked eng;
  Alcotest.(check bool) "finally ran on kill" true !cleaned;
  Alcotest.(check bool) "victim dead" false (E.is_alive eng victim)

let test_kill_running_task () =
  let eng = E.create () in
  let reached = ref false in
  let vid =
    E.spawn eng ~name:"victim" (fun () ->
        E.consume 10;
        E.consume 10;
        reached := true)
  in
  ignore
    (E.spawn eng ~name:"killer" (fun () ->
         E.consume 5;
         E.kill_here vid));
  run_checked eng;
  Alcotest.(check bool) "victim never finished body" false !reached

let test_kill_not_started () =
  let eng = E.create () in
  let ran = ref false in
  let vid = E.spawn eng ~name:"victim" (fun () -> ran := true) in
  E.kill eng vid;
  run_checked eng;
  Alcotest.(check bool) "never ran" false !ran

let test_spawn_here_inherits_time () =
  let eng = E.create () in
  let child_time = ref 0L in
  ignore
    (E.spawn eng (fun () ->
         E.consume 1234;
         ignore
           (E.spawn_here ~name:"child" (fun () ->
                child_time := E.now_cycles ()))));
  run_checked eng;
  Alcotest.(check int64) "child starts at parent's time" 1234L !child_time

let test_failure_recorded () =
  let eng = E.create () in
  ignore (E.spawn eng ~name:"boom" (fun () -> failwith "boom"));
  E.run eng;
  match E.failures eng with
  | [ (_, Failure msg) ] -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected exactly one failure"

let test_yield_fairness () =
  let eng = E.create () in
  let log = ref [] in
  let task tag =
    E.spawn eng ~name:tag (fun () ->
        for _ = 1 to 2 do
          log := tag :: !log;
          E.yield ()
        done)
  in
  ignore (task "a");
  ignore (task "b");
  run_checked eng;
  Alcotest.(check (list string))
    "round-robin at equal time"
    [ "a"; "b"; "a"; "b" ]
    (List.rev !log)

(* --- scheduler edge cases ------------------------------------------- *)

(* Killing a task whose continuation entry sits on the ready ring (it
   yielded at the current vtime) must discard the entry, unwind the
   fiber through its [finally] handlers, and leave the engine able to
   finish cleanly. *)
let test_kill_on_ready_ring () =
  let eng = E.create () in
  let runs = ref 0 in
  let cleaned = ref false in
  let victim = ref None in
  ignore
    (E.spawn eng ~name:"killer" (fun () ->
         E.yield ();
         (* The victim has run once and is parked on the ready ring at
            this same virtual time. *)
         match !victim with
         | Some vid -> E.kill_here vid
         | None -> Alcotest.fail "victim not spawned"));
  victim :=
    Some
      (E.spawn eng ~name:"victim" (fun () ->
           Fun.protect
             ~finally:(fun () -> cleaned := true)
             (fun () ->
               while true do
                 incr runs;
                 E.yield ()
               done)));
  run_checked eng;
  Alcotest.(check int) "victim ran exactly once before the kill" 1 !runs;
  Alcotest.(check bool) "finally ran on ring-queued kill" true !cleaned;
  Alcotest.(check bool) "victim dead"
    false
    (E.is_alive eng (Option.get !victim))

(* A ticker that deactivates (returns [false]) while the engine is
   draining several ticker deadlines crossed by one large time jump must
   stop firing permanently, and the cached earliest-deadline must be
   recomputed so other tickers keep firing at their own periods. *)
let test_ticker_deactivates_mid_drain () =
  let eng = E.create () in
  let a_fires = ref [] in
  let b_fires = ref [] in
  E.add_ticker eng ~period:100 (fun () ->
      a_fires := E.now eng :: !a_fires;
      List.length !a_fires < 3);
  E.add_ticker eng ~period:250 (fun () ->
      b_fires := E.now eng :: !b_fires;
      true);
  (* A single sleep jumps virtual time across every deadline at once. *)
  ignore (E.spawn eng (fun () -> E.sleep 1050));
  run_checked eng;
  Alcotest.(check (list int64))
    "fast ticker fires thrice then deactivates"
    [ 100L; 200L; 300L ]
    (List.rev !a_fires);
  Alcotest.(check (list int64))
    "slow ticker unaffected by the deactivation"
    [ 250L; 500L; 750L; 1000L ]
    (List.rev !b_fires)

(* Deadline-vs-signal race at the same virtual time. The deadline entry
   is scheduled when the wait starts; the signal wake is scheduled when
   the signaller runs. On an exact vtime tie the (etime, eseq) order
   decides: whichever entry was scheduled first wins, so the outcome
   flips with spawn order — but each interleaving is deterministic. *)
let test_timeout_vs_signal_same_vtime () =
  let outcome ~waiter_first =
    let eng = E.create () in
    let c = E.Cond.create "race" in
    let result = ref None in
    let waiter () =
      ignore
        (E.spawn eng ~name:"waiter" (fun () ->
             result := Some (E.Cond.wait_timeout c 100)))
    in
    let signaller () =
      ignore
        (E.spawn eng ~name:"signaller" (fun () ->
             E.consume 100;
             E.Cond.signal c))
    in
    if waiter_first then (
      waiter ();
      signaller ())
    else (
      signaller ();
      waiter ());
    run_checked eng;
    match !result with
    | Some r -> r
    | None -> Alcotest.fail "waiter never resolved"
  in
  Alcotest.(check bool)
    "waiter first: its deadline entry wins the tie (timed out)"
    false
    (outcome ~waiter_first:true);
  Alcotest.(check bool)
    "signaller first: its wake wins the tie (signalled)"
    true
    (outcome ~waiter_first:false)

(* 200-seed equivalence against a naive sorted-list scheduler — the
   shape the engine had before the ready-ring/heap rewrite. Random task
   programs over consume/sleep/yield (with zero-cost ops for heavy tie
   pressure) must produce the identical completion log under both,
   proving the (etime, eseq) dispatch order survived the overhaul. A
   heap-stress case adds hundreds of tasks that all sleep at once (the
   heap's arrays grow past their initial 256 slots), durations drawn from a few
   values (equal-time ties), and [wait_timeout]s on a shared bell that
   other tasks ring, whose cancelled deadlines stay in the heap until
   they surface. *)
type ref_op =
  | R_consume of int
  | R_sleep of int
  | R_yield
  | R_wait of int (* [wait_timeout] on the bell *)
  | R_ring (* broadcast the bell *)

let reference_schedule programs =
  (* Entries are (time, seq, task index, resume value); pop always takes
     the (time, seq)-minimum, mirroring the engine's tie-break. The log
     records each op at the vtime its post-effect resumption runs, with
     [wait_timeout]'s result (false for the other ops). *)
  let seq = ref 0 in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let entries = ref [] in
  let push time s i flag = entries := (time, s, i, flag) :: !entries in
  let pop_min () =
    match !entries with
    | [] -> None
    | first :: rest ->
      let best =
        List.fold_left
          (fun ((bt, bs, _, _) as b) ((t, s, _, _) as e) ->
            if t < bt || (t = bt && s < bs) then e else b)
          first rest
      in
      entries := List.filter (fun e -> e != best) !entries;
      Some best
  in
  let ops = Array.of_list programs in
  let n = Array.length ops in
  let idx = Array.make n 0 in
  (* The bell's waiters, oldest first, with their deadline's seq. *)
  let bell = ref [] in
  let log = ref [] in
  for i = 0 to n - 1 do
    push 0 (next_seq ()) i false
  done;
  let rec run () =
    match pop_min () with
    | None -> ()
    | Some (time, _, i, flag) ->
      (* A deadline that fires claims its waiter. *)
      bell := List.filter (fun (w, _) -> w <> i) !bell;
      if idx.(i) > 0 then log := (i, idx.(i) - 1, time, flag) :: !log;
      (* The task runs until its next real effect point. [consume 0] is
         a documented no-op — no effect is performed, so the op logs
         immediately within the same dispatch instead of rescheduling
         (sleep and yield always reschedule, even at zero cost). So does
         a ring, which wakes every waiter at the ringer's time and
         cancels their deadlines. *)
      let scheduled = ref false in
      while (not !scheduled) && idx.(i) < Array.length ops.(i) do
        (match ops.(i).(idx.(i)) with
        | R_consume 0 -> log := (i, idx.(i), time, false) :: !log
        | R_consume d | R_sleep d ->
          push (time + d) (next_seq ()) i false;
          scheduled := true
        | R_yield ->
          push time (next_seq ()) i false;
          scheduled := true
        | R_wait d ->
          let s = next_seq () in
          push (time + d) s i false;
          bell := !bell @ [ (i, s) ];
          scheduled := true
        | R_ring ->
          List.iter
            (fun (w, deadline) ->
              entries :=
                List.filter (fun (_, s, _, _) -> s <> deadline) !entries;
              push time (next_seq ()) w true)
            !bell;
          bell := [];
          log := (i, idx.(i), time, false) :: !log);
        idx.(i) <- idx.(i) + 1
      done;
      run ()
  in
  run ();
  List.rev !log

let engine_schedule programs =
  let eng = E.create () in
  let bell = E.Cond.create "bell" in
  let log = ref [] in
  List.iteri
    (fun i ops ->
      ignore
        (E.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
             Array.iteri
               (fun j op ->
                 let flag =
                   match op with
                   | R_consume d ->
                     E.consume d;
                     false
                   | R_sleep d ->
                     E.sleep d;
                     false
                   | R_yield ->
                     E.yield ();
                     false
                   | R_wait d -> E.Cond.wait_timeout bell d
                   | R_ring ->
                     E.Cond.broadcast bell;
                     false
                 in
                 log := (i, j, Int64.to_int (E.now_cycles ()), flag) :: !log)
               ops)))
    programs;
  run_checked eng;
  List.rev !log

let gen_program rng =
  let n_ops = 4 + Random.State.int rng 12 in
  Array.init n_ops (fun _ ->
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 -> R_consume (Random.State.int rng 31)
      | 4 | 5 -> R_consume 0 (* force vtime ties *)
      | 6 | 7 -> R_sleep (Random.State.int rng 51)
      | _ -> R_yield)

(* Every task first sleeps, so all of them sit in the heap at once;
   durations are multiples of 5 for ties at equal times. *)
let gen_stress_program rng =
  let dur () = 5 * Random.State.int rng 11 in
  Array.init
    (5 + Random.State.int rng 8)
    (fun j ->
      if j = 0 then R_sleep (1 + dur ())
      else
        match Random.State.int rng 10 with
        | 0 | 1 | 2 -> R_consume (dur ())
        | 3 | 4 -> R_sleep (dur ())
        | 5 -> R_yield
        | 6 | 7 | 8 -> R_wait (dur ())
        | _ -> R_ring)

let test_schedule_equivalence () =
  let check seed programs =
    let expected = reference_schedule programs in
    let actual = engine_schedule programs in
    if expected <> actual then
      Alcotest.failf
        "seed %d: engine dispatch order diverged from the reference \
         scheduler (%d vs %d events)"
        seed
        (List.length actual)
        (List.length expected);
    expected
  in
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x5EED; seed |] in
    let n_tasks = 2 + Random.State.int rng 5 in
    ignore (check seed (List.init n_tasks (fun _ -> gen_program rng)))
  done;
  for seed = 0 to 4 do
    let rng = Random.State.make [| 0x4EA9; seed |] in
    let n_tasks = 300 + Random.State.int rng 40 in
    let programs = Array.init n_tasks (fun _ -> gen_stress_program rng) in
    let log = check (1000 + seed) (Array.to_list programs) in
    (* Both outcomes occur: rung waits (whose deadlines were cancelled)
       and expired ones. *)
    let waits flag =
      List.length
        (List.filter
           (fun (i, j, _, f) ->
             f = flag
             && match programs.(i).(j) with R_wait _ -> true | _ -> false)
           log)
    in
    if waits true = 0 || waits false = 0 then
      Alcotest.failf "stress seed %d: %d rung and %d expired waits" seed
        (waits true) (waits false)
  done

(* 200-seed differential for [E.after]: random task programs that also
   schedule delayed callbacks (delays 0-50, with same-slot ties) and
   wait on a cond the callbacks broadcast. Every callback runs once
   through a spawned task that sleeps the delay, and once through
   [E.after]; the (label, vtime) logs and the switch counts must match.
   Single-task seeds let the delayed entry fire inline; crowded seeds,
   ticker deadlines and cycle budgets make it re-arm instead. *)
type after_op =
  | A_consume of int
  | A_sleep of int
  | A_yield
  | A_after of int
  | A_wait of int

let gen_after_program rng =
  Array.init
    (3 + Random.State.int rng 10)
    (fun _ ->
      match Random.State.int rng 12 with
      | 0 | 1 | 2 -> A_consume (Random.State.int rng 31)
      | 3 -> A_consume 0
      | 4 | 5 -> A_sleep (Random.State.int rng 51)
      | 6 -> A_yield
      | 7 -> A_after 0
      | 8 | 9 -> A_after (Random.State.int rng 51)
      | _ -> A_wait (Random.State.int rng 41))

let after_schedule ~via_after ~ticker ~budget programs =
  let eng = E.create () in
  let bell = E.Cond.create "bell" in
  let log = ref [] in
  let note label time = log := (label, time) :: !log in
  let delayed d fn =
    if via_after then E.after d fn
    else
      ignore
        (E.spawn_here (fun () ->
             E.sleep d;
             fn ()))
  in
  (match ticker with
  | Some period ->
    E.add_ticker eng ~period (fun () ->
        note "tick" (Int64.to_int (E.now eng));
        true)
  | None -> ());
  List.iteri
    (fun i ops ->
      ignore
        (E.spawn eng (fun () ->
             Array.iteri
               (fun j op ->
                 let label = Printf.sprintf "t%d.%d" i j in
                 (match op with
                 | A_consume d -> E.consume d
                 | A_sleep d -> E.sleep d
                 | A_yield -> E.yield ()
                 | A_after d ->
                   delayed d (fun () ->
                       note ("cb" ^ label) (E.clock ());
                       E.Cond.broadcast bell)
                 | A_wait d ->
                   if E.Cond.wait_timeout bell d then
                     note "woken" (E.clock ()));
                 note label (E.clock ()))
               ops)))
    programs;
  (match run_checked ~quiescent:true ?cycle_budget:budget eng with
  | () -> ()
  | exception E.Budget_exceeded at -> note "budget" (Int64.to_int at));
  (List.rev !log, E.task_switches eng)

let test_after_equivalence () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0xAF7E; seed |] in
    let n_tasks = 1 + Random.State.int rng 5 in
    let programs = List.init n_tasks (fun _ -> gen_after_program rng) in
    let ticker =
      if seed mod 3 = 0 then Some (5 + Random.State.int rng 30) else None
    in
    let budget =
      if seed mod 4 = 1 then Some (Int64.of_int (40 + Random.State.int rng 200))
      else None
    in
    let run via_after = after_schedule ~via_after ~ticker ~budget programs in
    let log_s, sw_s = run false and log_a, sw_a = run true in
    if log_s <> log_a then
      Alcotest.failf "seed %d: after diverged from spawn_here + sleep" seed;
    if sw_s <> sw_a then
      Alcotest.failf "seed %d: %d task switches via after, %d via a task" seed
        sw_a sw_s
  done

let test_many_tasks_scale () =
  let eng = E.create () in
  let total = ref 0 in
  for i = 1 to 1000 do
    ignore
      (E.spawn eng (fun () ->
           E.consume i;
           incr total))
  done;
  run_checked eng;
  Alcotest.(check int) "all tasks ran" 1000 !total;
  Alcotest.(check int64) "time is max consume" 1000L (E.now eng)

(* ------------------------------------------------------------------ *)
(* The current-task slot: which calls skip the effect, and when not    *)
(* ------------------------------------------------------------------ *)

(* Every task-context call that may run directly inside a task still
   raises [Effect.Unhandled] where no task is running. *)
let outside_task_calls () =
  let c = E.Cond.create "outside" in
  [
    ("now_cycles", fun () -> ignore (E.now_cycles ()));
    ("clock", fun () -> ignore (E.clock ()));
    ("consume", fun () -> E.consume 5);
    ("signal", fun () -> E.Cond.signal c);
    ("broadcast", fun () -> E.Cond.broadcast c);
    ("after", fun () -> E.after 5 ignore);
  ]

let unhandled f =
  match f () with () -> false | exception Effect.Unhandled _ -> true

let test_unhandled_before_run () =
  ignore (E.create ());
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " raises Unhandled") true (unhandled f))
    (outside_task_calls ())

let test_unhandled_in_ticker () =
  let eng = E.create () in
  let seen = ref [] in
  E.add_ticker eng ~period:10 (fun () ->
      seen :=
        List.map (fun (name, f) -> (name, unhandled f)) (outside_task_calls ());
      false);
  ignore (E.spawn eng (fun () -> E.consume 100));
  run_checked eng;
  Alcotest.(check int) "ticker fired" (List.length (outside_task_calls ()))
    (List.length !seen);
  List.iter
    (fun (name, raised) ->
      Alcotest.(check bool)
        (name ^ " raises Unhandled in a ticker")
        true raised)
    !seen

(* In a killed task, [E.after] unwinds with [Killed] and schedules
   nothing, as [spawn_here] does. (Outside any task it is unhandled, as
   [outside_task_calls] checks.) *)
let test_after_in_killed_task () =
  let killed_calls schedule =
    let eng = E.create () in
    let park = E.Cond.create "park" in
    let fired = ref false and unwound = ref false in
    let victim =
      E.spawn eng (fun () ->
          match E.Cond.wait park with
          | () -> ()
          | exception E.Killed -> (
            match schedule (fun () -> fired := true) with
            | () -> ()
            | exception E.Killed -> unwound := true))
    in
    ignore
      (E.spawn eng (fun () ->
           E.consume 10;
           E.kill_here victim));
    run_checked eng;
    (!unwound, !fired)
  in
  Alcotest.(check (pair bool bool))
    "spawn_here in a killed task" (true, false)
    (killed_calls (fun fn -> ignore (E.spawn_here fn)));
  Alcotest.(check (pair bool bool))
    "after in a killed task" (true, false)
    (killed_calls (fun fn -> E.after 5 fn))

(* A task killed while parked in [Cond.wait] unwinds with [Killed]; its
   cleanup's consume and broadcast perform their effects, which
   discontinue it again, so it ends Dead without waking anyone —
   whichever of the two calls comes first. *)
let test_killed_cleanup_wakes_nobody () =
  let eng = E.create () in
  let park = E.Cond.create "park" and bystanders = E.Cond.create "bystanders" in
  let woken = ref 0 in
  ignore
    (E.spawn eng ~name:"bystander" (fun () ->
         E.Cond.wait bystanders;
         incr woken));
  let victim cleanup =
    E.spawn eng (fun () ->
        match E.Cond.wait park with
        | () -> ()
        | exception e ->
          cleanup ();
          raise e)
  in
  let a =
    victim (fun () ->
        E.consume 10;
        E.Cond.broadcast bystanders)
  and b =
    victim (fun () ->
        E.Cond.broadcast bystanders;
        E.consume 10)
  in
  ignore
    (E.spawn eng ~name:"killer" (fun () ->
         E.consume 50;
         E.kill_here a;
         E.kill_here b));
  run_checked ~quiescent:true eng;
  Alcotest.(check bool) "consume-first victim dead" false (E.is_alive eng a);
  Alcotest.(check bool) "broadcast-first victim dead" false (E.is_alive eng b);
  Alcotest.(check int) "nobody woken" 0 !woken;
  Alcotest.(check int) "no failures recorded" 0 (List.length (E.failures eng));
  Alcotest.(check int64) "no time charged past the kill" 50L (E.now eng)

(* A second engine drained from inside a task hands the slots back: the
   outer task's clock and inline consumes keep charging the outer task,
   also after the inner run ends in an exception. *)
let test_nested_engine_restores_slots () =
  let outer = E.create () in
  let inner = E.create () in
  let log = ref [] in
  ignore
    (E.spawn outer ~name:"outer" (fun () ->
         E.consume 10;
         ignore (E.spawn inner (fun () -> E.consume 1_000));
         E.run inner;
         log := ("after run", E.clock ()) :: !log;
         E.consume 7;
         log := ("after consume", E.clock ()) :: !log;
         ignore (E.spawn inner ~name:"runaway" (fun () -> E.consume 5_000));
         (match E.run ~cycle_budget:2_000L inner with
         | () -> ()
         | exception E.Budget_exceeded _ ->
           log := ("budget", E.clock ()) :: !log);
         E.consume 3;
         log := ("end", Int64.to_int (E.now_cycles ())) :: !log));
  run_checked outer;
  Alcotest.(check (list (pair string int)))
    "outer task's clock"
    [ ("after run", 10); ("after consume", 17); ("budget", 17); ("end", 20) ]
    (List.rev !log);
  Alcotest.(check int64) "outer engine time" 20L (E.now outer);
  Alcotest.(check int64) "inner engine time" 1_000L (E.now inner)

(* Minor words are deterministic, so these gates are exact. The float
   boxes of the [Gc.minor_words] reads themselves stay far below one
   word per call over [calls] calls. *)
let calls = 10_000

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_direct_calls_allocate_nothing () =
  let eng = E.create () in
  let c = E.Cond.create "empty" in
  let words = ref [] in
  let measure name f =
    let w =
      words_during (fun () ->
          for _ = 1 to calls do
            f ()
          done)
    in
    words := (name, w /. float_of_int calls) :: !words
  in
  ignore
    (E.spawn eng (fun () ->
         measure "inline consume" (fun () -> E.consume 1);
         measure "clock" (fun () -> ignore (E.clock ()));
         measure "broadcast, no waiters" (fun () -> E.Cond.broadcast c)));
  run_checked eng;
  List.iter
    (fun (name, per_call) ->
      if per_call >= 0.01 then
        Alcotest.failf "%s allocates %.3f words per call (gate 0)" name
          per_call)
    !words;
  Alcotest.(check int64) "every consume ran inline" (Int64.of_int calls)
    (E.now eng)

(* Two tasks consuming in lockstep: neither is ever the sole next pick,
   so every consume parks and is resumed by the dispatcher. The
   difference between a run of [2 * calls] and one of [calls] consumes
   per task cancels the fixed cost of creating and spawning. *)
let test_parked_consume_allocation () =
  let lockstep n =
    let eng = E.create () in
    for _ = 1 to 2 do
      ignore
        (E.spawn eng (fun () ->
             for _ = 1 to n do
               E.consume 1
             done))
    done;
    let w = words_during (fun () -> run_checked eng) in
    (w, E.task_switches eng)
  in
  let w1, s1 = lockstep calls and w2, s2 = lockstep (2 * calls) in
  Alcotest.(check int) "every consume parked" (2 * calls) (s2 - s1);
  let per_switch = (w2 -. w1) /. float_of_int (s2 - s1) in
  if per_switch > 2.0 then
    Alcotest.failf "a parked consume allocates %.2f words per switch (gate 2)"
      per_switch

(* The same differencing for cond parks: two tasks ping-pong over two
   conds with [wait], or with a [wait_timeout] that a signal always
   beats (an inline consume per round lets the cancelled deadlines fall
   due), and one task lets a short [wait_timeout] expire. The gate is
   per parked wait, so the inline consumes do not dilute it. *)
let test_parked_cond_allocation () =
  let measure name wait body =
    let run n =
      let eng = E.create () and parks = ref 0 in
      body eng n (fun c ->
          incr parks;
          wait c);
      let w = words_during (fun () -> run_checked eng) in
      (w, !parks)
    in
    let w1, p1 = run calls and w2, p2 = run (2 * calls) in
    Alcotest.(check int) (name ^ ": parks") calls (p2 - p1);
    let per_park = (w2 -. w1) /. float_of_int (p2 - p1) in
    if per_park > 2.0 then
      Alcotest.failf "a parked %s allocates %.2f words per park (gate 2)"
        name per_park
  in
  let ping_pong eng n wait =
    let ca = E.Cond.create "a" and cb = E.Cond.create "b" in
    ignore
      (E.spawn eng (fun () ->
           for _ = 1 to n do
             wait cb;
             E.Cond.signal ca
           done));
    ignore
      (E.spawn eng (fun () ->
           for _ = 1 to n do
             E.Cond.signal cb;
             wait ca
           done))
  in
  measure "Cond.wait" E.Cond.wait (fun eng n wait ->
      ping_pong eng (n / 2) wait);
  measure "signalled wait_timeout"
    (fun c ->
      if not (E.Cond.wait_timeout c 3) then failwith "timed out";
      E.consume 1)
    (fun eng n wait -> ping_pong eng (n / 2) wait);
  measure "expiring wait_timeout"
    (fun c -> ignore (E.Cond.wait_timeout c 1))
    (fun eng n wait ->
      let c = E.Cond.create "never" in
      ignore
        (E.spawn eng (fun () ->
             for _ = 1 to n do
               wait c
             done)))

let () =
  Alcotest.run "varan_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "consume advances time" `Quick
            test_consume_advances_time;
          Alcotest.test_case "zero consume free" `Quick
            test_zero_consume_is_free;
          Alcotest.test_case "interleaving by time" `Quick
            test_interleaving_by_time;
          Alcotest.test_case "fifo tie break" `Quick test_fifo_tie_break;
          Alcotest.test_case "sleep" `Quick test_sleep;
          Alcotest.test_case "many tasks" `Quick test_many_tasks_scale;
          Alcotest.test_case "spawn_here inherits time" `Quick
            test_spawn_here_inherits_time;
          Alcotest.test_case "failure recorded" `Quick test_failure_recorded;
          Alcotest.test_case "yield fairness" `Quick test_yield_fairness;
        ] );
      ( "cond",
        [
          Alcotest.test_case "signal wakes at signaller time" `Quick
            test_cond_signal;
          Alcotest.test_case "broadcast wakes all" `Quick test_cond_broadcast;
          Alcotest.test_case "signal wakes one" `Quick
            test_cond_signal_wakes_one;
          Alcotest.test_case "wait_timeout expires" `Quick
            test_wait_timeout_expires;
          Alcotest.test_case "wait_timeout signalled" `Quick
            test_wait_timeout_signalled;
          Alcotest.test_case "wait_timeout: signalled, expired, killed" `Quick
            test_wait_timeout_outcomes;
          Alcotest.test_case "timeout, then a second cond" `Quick
            test_timeout_then_second_cond;
          Alcotest.test_case "kill mid-queue keeps FIFO" `Quick
            test_kill_mid_queue_keeps_fifo;
          Alcotest.test_case "waiters exact through every claim" `Quick
            test_waiters_exact;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
          Alcotest.test_case "kill blocked task" `Quick test_kill_blocked_task;
          Alcotest.test_case "kill running task" `Quick test_kill_running_task;
          Alcotest.test_case "kill before start" `Quick test_kill_not_started;
        ] );
      ( "edge",
        [
          Alcotest.test_case "kill while queued on ready ring" `Quick
            test_kill_on_ready_ring;
          Alcotest.test_case "ticker deactivation mid-drain" `Quick
            test_ticker_deactivates_mid_drain;
          Alcotest.test_case "timeout vs signal at same vtime" `Quick
            test_timeout_vs_signal_same_vtime;
          Alcotest.test_case "200-seed equivalence vs list scheduler" `Quick
            test_schedule_equivalence;
          Alcotest.test_case "200-seed after == spawn_here + sleep" `Quick
            test_after_equivalence;
        ] );
      ( "slot",
        [
          Alcotest.test_case "unhandled before run" `Quick
            test_unhandled_before_run;
          Alcotest.test_case "unhandled in a ticker" `Quick
            test_unhandled_in_ticker;
          Alcotest.test_case "after in a killed task" `Quick
            test_after_in_killed_task;
          Alcotest.test_case "killed cleanup wakes nobody" `Quick
            test_killed_cleanup_wakes_nobody;
          Alcotest.test_case "nested engine restores the slots" `Quick
            test_nested_engine_restores_slots;
          Alcotest.test_case "direct calls allocate nothing" `Quick
            test_direct_calls_allocate_nothing;
          Alcotest.test_case "parked consume allocation" `Quick
            test_parked_consume_allocation;
          Alcotest.test_case "parked cond wait allocation" `Quick
            test_parked_cond_allocation;
        ] );
    ]
