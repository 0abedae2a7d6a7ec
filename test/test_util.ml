(* Tests for the utility layer: PRNG determinism and distribution, the
   statistics helpers, table rendering, the byte queue and the framed
   message protocol. *)

module Prng = Varan_util.Prng
module Stats = Varan_util.Stats
module Tablefmt = Varan_util.Tablefmt
module Bytequeue = Varan_kernel.Bytequeue

(* --- prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_prng_split_independent () =
  let g = Prng.create 7 in
  let g1 = Prng.split g in
  let g2 = Prng.split g in
  Alcotest.(check bool) "split streams differ" false
    (Prng.next_int64 g1 = Prng.next_int64 g2)

let prop_prng_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair (int_bound 10_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int_in inclusive range" ~count:500
    QCheck.(triple (int_bound 10_000) (int_range (-50) 50) (int_bound 100))
    (fun (seed, lo, span) ->
      let g = Prng.create seed in
      let hi = lo + span in
      let v = Prng.int_in g lo hi in
      v >= lo && v <= hi)

let test_prng_shuffle_permutation () =
  let g = Prng.create 11 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- stats ------------------------------------------------------------ *)

let test_stats_basics () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 1.0; 2.0; 7.0 ]);
  let s = Stats.summarize_array (Array.of_list xs) in
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "population stddev" (sqrt 1.25) s.Stats.stddev

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile 95.0 xs);
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100 is max" 100.0 (Stats.percentile 100.0 xs)

let prop_stats_summary_consistent =
  QCheck.Test.make ~name:"summary min<=median<=max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Stats.summarize_array (Array.of_list xs) in
      s.Stats.min <= s.Stats.median
      && s.Stats.median <= s.Stats.max
      && s.Stats.min <= s.Stats.mean +. 1e-9
      && s.Stats.mean <= s.Stats.max +. 1e-9
      && s.Stats.p99 <= s.Stats.p999
      && s.Stats.p999 <= s.Stats.max
      && s.Stats.n = List.length xs)

let test_stats_tail_percentiles () =
  (* On 1..10000 the tail order is strict and p999 sits in the last
     handful of samples — the open-loop benches live on this field. *)
  let xs = List.init 10_000 (fun i -> float_of_int (i + 1)) in
  let s = Stats.summarize_array (Array.of_list xs) in
  Alcotest.(check bool) "p95 < p99 < p999 < max" true
    (s.Stats.p95 < s.Stats.p99 && s.Stats.p99 < s.Stats.p999
   && s.Stats.p999 <= s.Stats.max);
  Alcotest.(check bool) "p999 in the top 0.2%" true (s.Stats.p999 >= 9_980.0);
  (* The list percentile and the array summary agree on shuffled input,
     and the array input is left untouched. *)
  let shuffled = Array.of_list xs in
  let tmp = shuffled.(0) in
  shuffled.(0) <- shuffled.(9999);
  shuffled.(9999) <- tmp;
  let sa = Stats.summarize_array shuffled in
  Alcotest.(check (float 1e-9)) "array p999 agrees"
    (Stats.percentile 99.9 xs) sa.Stats.p999;
  Alcotest.(check (float 1e-9)) "shuffled input untouched" 10_000.0 shuffled.(0)

let test_stats_tiny_samples () =
  (* n=1: every statistic collapses to the sample. *)
  let s1 = Stats.summarize_array [| 42.0 |] in
  Alcotest.(check int) "n=1 n" 1 s1.Stats.n;
  Alcotest.(check (float 1e-9)) "n=1 mean" 42.0 s1.Stats.mean;
  Alcotest.(check (float 1e-9)) "n=1 median" 42.0 s1.Stats.median;
  Alcotest.(check (float 1e-9)) "n=1 p999" 42.0 s1.Stats.p999;
  Alcotest.(check (float 1e-9)) "n=1 min" 42.0 s1.Stats.min;
  Alcotest.(check (float 1e-9)) "n=1 max" 42.0 s1.Stats.max;
  Alcotest.(check (float 1e-9)) "n=1 percentile 50" 42.0
    (Stats.percentile 50.0 [ 42.0 ]);
  (* n=2: median averages, the tail percentiles sit on the larger
     sample (nearest-rank never interpolates past the data). *)
  let s2 = Stats.summarize_array [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "n=2 median" 15.0 s2.Stats.median;
  Alcotest.(check (float 1e-9)) "n=2 p95" 20.0 s2.Stats.p95;
  Alcotest.(check (float 1e-9)) "n=2 p999" 20.0 s2.Stats.p999;
  Alcotest.(check (float 1e-9)) "n=2 min" 10.0 s2.Stats.min;
  (* p999 on a tiny sample set equals the max, never an extrapolation. *)
  let xs = [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "tiny p999 = max" 3.0
    (Stats.percentile 99.9 xs);
  Alcotest.(check (float 1e-9)) "tiny summarize p999 = max" 3.0
    (Stats.summarize_array (Array.of_list xs)).Stats.p999

let test_summarize_array_non_mutation () =
  (* summarize_array sorts a copy: the caller's array must come back
     byte-identical even when thoroughly unsorted. *)
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0; 0.5; 9.0 |] in
  let before = Array.copy a in
  let s = Stats.summarize_array a in
  Alcotest.(check (array (float 1e-9))) "input untouched" before a;
  Alcotest.(check (float 1e-9)) "median over the sorted copy" 3.0
    s.Stats.median

let test_scoped_counters () =
  Alcotest.(check string) "unscoped name unchanged" "lifecycle.respawns"
    (Stats.scoped_name "lifecycle.respawns");
  Alcotest.(check string) "scope prefixes" "shard3.lifecycle.respawns"
    (Stats.scoped_name ~scope:"shard3" "lifecycle.respawns");
  let a = Stats.scoped_counter ~scope:"s0" "test.scoped" in
  let b = Stats.scoped_counter ~scope:"s1" "test.scoped" in
  let before_a = Stats.counter_value a in
  let before_b = Stats.counter_value b in
  Stats.incr_counter a;
  Stats.incr_counter a;
  Stats.incr_counter b;
  Alcotest.(check int) "scopes tally apart (s0)" (before_a + 2)
    (Stats.counter_value a);
  Alcotest.(check int) "scopes tally apart (s1)" (before_b + 1)
    (Stats.counter_value b);
  Alcotest.(check string) "scoped counter name" "s0.test.scoped"
    (Stats.counter_name a)

(* --- floatbuf --------------------------------------------------------- *)

module Floatbuf = Varan_util.Floatbuf

let test_floatbuf_grows_in_order () =
  let b = Floatbuf.create ~capacity:4 () in
  Alcotest.(check bool) "fresh is empty" true (Floatbuf.is_empty b);
  Alcotest.(check bool) "no summary when empty" true
    (Floatbuf.summary b = None);
  for i = 0 to 9_999 do
    Floatbuf.push b (float_of_int i)
  done;
  Alcotest.(check int) "length counts pushes" 10_000 (Floatbuf.length b);
  Alcotest.(check (float 1e-9)) "get is positional" 1_234.0
    (Floatbuf.get b 1_234);
  (* Insertion order survives growth; to_list and to_array agree. *)
  let l = Floatbuf.to_list b in
  Alcotest.(check int) "to_list length" 10_000 (List.length l);
  Alcotest.(check (float 1e-9)) "list head" 0.0 (List.hd l);
  Alcotest.(check (float 1e-9)) "array tail" 9_999.0 ((Floatbuf.to_array b).(9_999));
  (match Floatbuf.summary b with
  | None -> Alcotest.fail "summary lost the samples"
  | Some s ->
    Alcotest.(check int) "summary n" 10_000 s.Stats.n;
    Alcotest.(check (float 1e-9)) "summary max" 9_999.0 s.Stats.max);
  Floatbuf.clear b;
  Alcotest.(check int) "clear empties" 0 (Floatbuf.length b)

let test_floatbuf_capacity_doubling () =
  (* Push across the growth boundary of a deliberately tiny buffer and
     check every element: growth must copy the old prefix, not lose or
     reorder it. *)
  let b = Floatbuf.create ~capacity:2 () in
  for i = 0 to 4 do
    Floatbuf.push b (float_of_int (i * 10))
  done;
  Alcotest.(check int) "length across two doublings" 5 (Floatbuf.length b);
  for i = 0 to 4 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "element %d survives growth" i)
      (float_of_int (i * 10))
      (Floatbuf.get b i)
  done;
  Alcotest.(check (array (float 1e-9))) "to_array in push order"
    [| 0.0; 10.0; 20.0; 30.0; 40.0 |]
    (Floatbuf.to_array b)

(* --- registry ---------------------------------------------------------- *)

let test_registry_hygiene () =
  Stats.clear_registry ();
  let c0 = Stats.scoped_counter ~scope:"caseA" "events" in
  let _c1 = Stats.scoped_counter ~scope:"caseB" "events" in
  Stats.incr_counter c0;
  Alcotest.(check int) "two counters registered" 2
    (List.length (Stats.counters ()));
  (* remove_scope drops exactly the prefix-matched registrations. *)
  Stats.remove_scope "caseA";
  Alcotest.(check (list string)) "caseA gone, caseB stays"
    [ "caseB.events" ]
    (List.map fst (Stats.counters ()));
  (* An existing handle still works after its registration is dropped —
     it is just no longer visible to dump_json. *)
  Stats.incr_counter c0;
  Alcotest.(check int) "orphan handle still tallies" 2
    (Stats.counter_value c0);
  (* Re-requesting the name creates a fresh counter from zero. *)
  let c0' = Stats.scoped_counter ~scope:"caseA" "events" in
  Alcotest.(check int) "re-created counter starts fresh" 0
    (Stats.counter_value c0');
  Stats.clear_registry ();
  Alcotest.(check int) "clear_registry empties counters" 0
    (List.length (Stats.counters ()))

let test_dump_json_well_formed () =
  Stats.clear_registry ();
  let c = Stats.counter "a.count" in
  Stats.add_counter c 3;
  Stats.incr_counter (Stats.counter "a.lat\"quoted\"");
  let s = Stats.dump_json () in
  (* Must parse as JSON — handed to CI and external tools verbatim. We
     have no JSON parser in-tree; check the shape instead: balanced
     braces/brackets outside strings and the escaped name present. *)
  let depth = ref 0 and in_str = ref false and esc = ref false in
  String.iter
    (fun ch ->
      if !esc then esc := false
      else if !in_str then begin
        if ch = '\\' then esc := true else if ch = '"' then in_str := false
      end
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    s;
  Alcotest.(check int) "balanced nesting" 0 !depth;
  Alcotest.(check bool) "string state closed" false !in_str;
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter present" true (contains ~sub:"a.count" s);
  Alcotest.(check bool) "quote in counter name escaped" true
    (contains ~sub:"a.lat\\\"quoted\\\"" s);
  Stats.clear_registry ()

(* --- tablefmt ---------------------------------------------------------- *)

let test_table_renders_aligned () =
  let t =
    Tablefmt.create ~title:"T"
      [ ("name", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_rule t;
  Tablefmt.add_row t [ "b"; "1234567" ];
  let s = Tablefmt.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has title" true (List.hd lines = "T");
  (* All non-empty lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" || l = "T" then None else Some (String.length l))
      lines
  in
  let all_eq = List.for_all (fun w -> w = List.hd widths) widths in
  Alcotest.(check bool) "aligned" true all_eq

let test_table_short_rows_padded () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left); ("b", Tablefmt.Left) ] in
  Tablefmt.add_row t [ "only" ];
  Alcotest.(check bool) "renders" true (String.length (Tablefmt.render t) > 0)

let test_table_too_many_cells () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  match Tablefmt.add_row t [ "x"; "y" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

let test_ratio_pct () =
  Alcotest.(check string) "ratio" "1.52x" (Tablefmt.ratio 1.52);
  Alcotest.(check string) "pct" "11.3%" (Tablefmt.pct 0.113)

(* --- bytequeue ---------------------------------------------------------- *)

let test_bytequeue_fifo () =
  let q = Bytequeue.create () in
  ignore (Bytequeue.write q (Bytes.of_string "hello "));
  ignore (Bytequeue.write q (Bytes.of_string "world"));
  Alcotest.(check string) "reads across chunks" "hello world"
    (Bytes.to_string (Bytequeue.read q 11));
  Alcotest.(check bool) "empty after" true (Bytequeue.is_empty q)

let test_bytequeue_partial_reads () =
  let q = Bytequeue.create () in
  ignore (Bytequeue.write q (Bytes.of_string "abcdef"));
  Alcotest.(check string) "first" "ab" (Bytes.to_string (Bytequeue.read q 2));
  Alcotest.(check string) "second" "cd" (Bytes.to_string (Bytequeue.read q 2));
  Alcotest.(check string) "rest" "ef" (Bytes.to_string (Bytequeue.read q 10))

let test_bytequeue_capacity () =
  let q = Bytequeue.create ~capacity:4 () in
  let accepted = Bytequeue.write q (Bytes.of_string "abcdef") in
  Alcotest.(check int) "clipped to capacity" 4 accepted;
  Alcotest.(check int) "no space" 0 (Bytequeue.space q);
  ignore (Bytequeue.read q 2);
  Alcotest.(check int) "space reclaimed" 2 (Bytequeue.space q)

let test_bytequeue_peek () =
  let q = Bytequeue.create () in
  ignore (Bytequeue.write q (Bytes.of_string "xyz"));
  Alcotest.(check string) "peek" "xy" (Bytes.to_string (Bytequeue.peek q 2));
  Alcotest.(check int) "peek does not consume" 3 (Bytequeue.length q)

let prop_bytequeue_roundtrip =
  QCheck.Test.make ~name:"bytequeue write/read roundtrip" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 20) (string_of_size Gen.(int_range 0 64)))
    (fun chunks ->
      let q = Bytequeue.create ~capacity:(1 lsl 20) () in
      List.iter (fun c -> ignore (Bytequeue.write q (Bytes.of_string c))) chunks;
      let total = List.fold_left (fun n c -> n + String.length c) 0 chunks in
      let out = Bytequeue.read q total in
      Bytes.to_string out = String.concat "" chunks)

(* --- syscall tables -------------------------------------------------------- *)

module Sysno = Varan_syscall.Sysno
module Errno = Varan_syscall.Errno

let test_sysno_roundtrips () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Sysno.name s ^ " number roundtrip")
        true
        (Sysno.of_int (Sysno.to_int s) = Some s);
      Alcotest.(check bool)
        (Sysno.name s ^ " name roundtrip")
        true
        (Sysno.of_name (Sysno.name s) = Some s))
    Sysno.all;
  Alcotest.(check bool) "at least 86 syscalls, like the prototype" true
    (List.length Sysno.all >= 86);
  Alcotest.(check bool) "unknown number" true (Sysno.of_int 9999 = None)

let test_sysno_numbers_unique () =
  let nums = List.map Sysno.to_int Sysno.all in
  let sorted = List.sort_uniq compare nums in
  Alcotest.(check int) "no duplicate numbers" (List.length nums)
    (List.length sorted)

let test_sysno_classes_consistent () =
  (* The transfer classes drive the monitor; spot-check the key ones. *)
  let open Sysno in
  Alcotest.(check bool) "read is out-buffer" true
    (transfer_class Read = Out_buffer);
  Alcotest.(check bool) "write is in-buffer" true
    (transfer_class Write = In_buffer);
  Alcotest.(check bool) "open creates fds" true (transfer_class Open = New_fd);
  Alcotest.(check bool) "time is virtual" true (transfer_class Time = Vdso);
  Alcotest.(check bool) "mmap is local" true
    (transfer_class Mmap = Process_local);
  Alcotest.(check bool) "read blocks" true (is_blocking Read);
  Alcotest.(check bool) "write does not block" false (is_blocking Write)

let test_errno_roundtrips () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Errno.name e ^ " roundtrip")
        true
        (Errno.of_int (Errno.to_int e) = Some e))
    [ Errno.EPERM; Errno.ENOENT; Errno.EBADF; Errno.EAGAIN; Errno.EPIPE;
      Errno.ECONNREFUSED; Errno.ERESTARTSYS ];
  Alcotest.(check int) "ERESTARTSYS is the kernel's 512" 512
    (Errno.to_int Errno.ERESTARTSYS)

(* --- engine stress ---------------------------------------------------------- *)

module E2 = Varan_sim.Engine

(* Random mixes of consume/sleep/yield across many tasks: the engine's
   global time must equal the longest task's local time, and every task
   must complete. *)
let prop_engine_time_is_max =
  QCheck.Test.make ~name:"engine time = max task time" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 20))
    (fun (seed, ntasks) ->
      let rng = Varan_util.Prng.create seed in
      let eng = E2.create () in
      let expected = Array.make ntasks 0 in
      for i = 0 to ntasks - 1 do
        let steps =
          List.init (1 + Varan_util.Prng.int rng 10) (fun _ ->
              (Varan_util.Prng.int rng 3, Varan_util.Prng.int rng 1000))
        in
        expected.(i) <-
          List.fold_left
            (fun acc (kind, n) -> if kind = 2 then acc else acc + n)
            0 steps;
        ignore
          (E2.spawn eng (fun () ->
               List.iter
                 (fun (kind, n) ->
                   match kind with
                   | 0 -> E2.consume n
                   | 1 -> E2.sleep n
                   | _ -> E2.yield ())
                 steps))
      done;
      E2.run eng;
      E2.now eng = Int64.of_int (Array.fold_left max 0 expected))

(* --- proto --------------------------------------------------------------- *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Proto = Varan_workloads.Proto

let test_proto_roundtrip_over_socket () =
  let eng = E.create () in
  let k = K.create eng in
  let got = ref [] in
  let sproc = K.new_proc k "s" and cproc = K.new_proc k "c" in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let ok = Result.get_ok in
         let lfd = ok (Api.socket api) in
         ok (Api.bind api lfd 9999);
         ok (Api.listen api lfd);
         let c = ok (Api.accept api lfd) in
         let rec loop () =
           match Proto.recv_msg api c with
           | Ok (Some m) ->
             got := Bytes.to_string m :: !got;
             loop ()
           | _ -> ()
         in
         loop ()));
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         let ok = Result.get_ok in
         E.consume 1000;
         let fd = ok (Api.socket api) in
         ok (Api.connect api fd 9999);
         ok (Proto.send_msg api fd Bytes.empty);
         ok (Proto.send_str api fd "one");
         ok (Proto.send_msg api fd (Bytes.make 5000 'x'));
         ignore (Api.close api fd)));
  E.run_until_quiescent eng;
  match List.rev !got with
  | [ a; b; c ] ->
    Alcotest.(check int) "empty frame" 0 (String.length a);
    Alcotest.(check string) "small frame" "one" b;
    Alcotest.(check int) "big frame" 5000 (String.length c)
  | l -> Alcotest.failf "expected 3 frames, got %d" (List.length l)

let () =
  Alcotest.run "varan_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick
            test_prng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_prng_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_prng_int_in_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "tail percentiles (p999)" `Quick
            test_stats_tail_percentiles;
          Alcotest.test_case "tiny samples (n=1, n=2)" `Quick
            test_stats_tiny_samples;
          Alcotest.test_case "summarize_array non-mutation" `Quick
            test_summarize_array_non_mutation;
          Alcotest.test_case "scoped counters" `Quick test_scoped_counters;
          Alcotest.test_case "floatbuf grows in order" `Quick
            test_floatbuf_grows_in_order;
          Alcotest.test_case "floatbuf capacity doubling" `Quick
            test_floatbuf_capacity_doubling;
          QCheck_alcotest.to_alcotest prop_stats_summary_consistent;
          Alcotest.test_case "registry hygiene" `Quick test_registry_hygiene;
          Alcotest.test_case "dump_json well-formed" `Quick
            test_dump_json_well_formed;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "aligned" `Quick test_table_renders_aligned;
          Alcotest.test_case "short rows" `Quick test_table_short_rows_padded;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "ratio/pct" `Quick test_ratio_pct;
        ] );
      ( "bytequeue",
        [
          Alcotest.test_case "fifo" `Quick test_bytequeue_fifo;
          Alcotest.test_case "partial reads" `Quick test_bytequeue_partial_reads;
          Alcotest.test_case "capacity" `Quick test_bytequeue_capacity;
          Alcotest.test_case "peek" `Quick test_bytequeue_peek;
          QCheck_alcotest.to_alcotest prop_bytequeue_roundtrip;
        ] );
      ( "syscall-tables",
        [
          Alcotest.test_case "sysno roundtrips" `Quick test_sysno_roundtrips;
          Alcotest.test_case "sysno numbers unique" `Quick
            test_sysno_numbers_unique;
          Alcotest.test_case "transfer classes" `Quick
            test_sysno_classes_consistent;
          Alcotest.test_case "errno roundtrips" `Quick test_errno_roundtrips;
        ] );
      ( "engine-stress",
        [ QCheck_alcotest.to_alcotest prop_engine_time_is_max ] );
      ( "proto",
        [
          Alcotest.test_case "roundtrip over socket" `Quick
            test_proto_roundtrip_over_socket;
        ] );
    ]
