(* Tests for the ISA, disassembler, VM, binary rewriter and vDSO patching.
   The central property: a rewritten program, run with a hook handler that
   performs the syscall, is observationally identical to the original. *)

module I = Varan_isa.Insn
module D = Varan_isa.Disasm
module Vm = Varan_isa.Vm
module R = Varan_binary.Rewriter
module RC = Varan_binary.Rewrite_cache
module Codegen = Varan_binary.Codegen
module Image = Varan_binary.Image
module Vdso = Varan_binary.Vdso
module Prng = Varan_util.Prng

(* --- encode/decode ------------------------------------------------- *)

let all_example_insns =
  [
    I.Nop; I.Syscall; I.Int3; I.Int 0x80; I.Hook 42;
    I.Mov_imm (3, 123456l); I.Add (1, 2); I.Sub (7, 0); I.Cmp (4, 4);
    I.Add_imm (5, -3); I.Jmp 1000l; I.Jmp (-12l); I.Jmp_short (-128);
    I.Je 127; I.Jne (-1); I.Call 500l; I.Ret; I.Push 6; I.Pop 6;
    I.Load (2, 3); I.Store (3, 2); I.Hlt;
  ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun insn ->
      let b = I.encode insn in
      Alcotest.(check int)
        (Format.asprintf "%a length" I.pp insn)
        (I.length insn) (Bytes.length b);
      match I.decode b 0 with
      | Some (insn', len) ->
        Alcotest.(check bool)
          (Format.asprintf "%a roundtrip" I.pp insn)
          true
          (I.equal insn insn' && len = I.length insn)
      | None -> Alcotest.failf "%s failed to decode" (Format.asprintf "%a" I.pp insn))
    all_example_insns

let test_decode_invalid () =
  Alcotest.(check bool)
    "0xFF invalid" true
    (I.decode (Bytes.of_string "\xFF") 0 = None);
  (* Truncated MOV *)
  Alcotest.(check bool)
    "truncated mov" true
    (I.decode (Bytes.of_string "\xB8\x01") 0 = None)

(* The decoder contract, over every first byte: a decodable encoding
   re-encodes to exactly the bytes it came from, and every strict prefix
   of it is a truncated encoding that decodes to [None]. Checked at the
   start of a buffer and with the encoding ending the buffer. *)
let test_decode_contract () =
  let tails =
    [ "\x00\x00\x00\x00"; "\xFF\xFF\xFF\xFF"; "\x12\x34\x56\x78"; "\x80\x7F\x01\xFE" ]
  in
  List.iter
    (fun ofs ->
      let decodable = ref 0 in
      for op = 0 to 255 do
        List.iter
          (fun tail ->
            let buf =
              Bytes.of_string
                (String.make ofs '\x90' ^ String.make 1 (Char.chr op) ^ tail)
            in
            match I.decode buf ofs with
            | None -> ()
            | Some (insn, n) ->
              incr decodable;
              let what = Printf.sprintf "op 0x%02x tail %S at %d" op tail ofs in
              Alcotest.(check int) (what ^ " length") (I.length insn) n;
              Alcotest.(check string)
                (what ^ " re-encodes") (Bytes.sub_string buf ofs n)
                (Bytes.to_string (I.encode insn));
              for k = 1 to n - 1 do
                if I.decode (Bytes.sub buf 0 (ofs + k)) ofs <> None then
                  Alcotest.failf "%s: %d-byte prefix decodes" what k
              done)
          tails
      done;
      (* 63 valid opcodes, each decodable under every tail. *)
      Alcotest.(check int)
        (Printf.sprintf "decodable cases at %d" ofs)
        (63 * List.length tails) !decodable)
    [ 0; 11 ]

let test_branch_target () =
  (* jmp +10 at address 100 (5 bytes): target 115. *)
  Alcotest.(check (option int))
    "jmp rel32" (Some 115)
    (I.branch_target ~at:100 (I.Jmp 10l));
  Alcotest.(check (option int))
    "je rel8" (Some 95)
    (I.branch_target ~at:100 (I.Je (-7)));
  Alcotest.(check (option int)) "non-branch" None (I.branch_target ~at:0 I.Nop)

let test_with_target () =
  (match I.with_target ~at:100 (I.Je 0) 400 with
  | None -> ()
  | Some _ -> Alcotest.fail "rel8 overflow should refuse");
  match I.with_target ~at:100 (I.Jmp 0l) 400 with
  | Some (I.Jmp rel) -> Alcotest.(check int32) "rel32 fits" 295l rel
  | _ -> Alcotest.fail "jmp retarget failed"

(* --- disassembler --------------------------------------------------- *)

let test_sweep_skips_data () =
  let code = Bytes.of_string "\x90\xFF\x05\xF4" in
  let items = D.sweep code in
  Alcotest.(check int) "four items" 4 (List.length items);
  let decoded = D.instructions code in
  Alcotest.(check int) "three decoded" 3 (List.length decoded);
  Alcotest.(check (list int))
    "syscall site" [ 2 ] (D.syscall_sites code)

let test_branch_targets_collected () =
  let code = Codegen.loop_with_syscall ~iterations:3 in
  let targets = D.branch_targets code in
  Alcotest.(check bool) "loop head is a target" true (Hashtbl.mem targets 10)

(* --- VM -------------------------------------------------------------- *)

let test_vm_arithmetic () =
  let code =
    Bytes.concat Bytes.empty
      (List.map I.encode
         [ I.Mov_imm (1, 20l); I.Mov_imm (2, 22l); I.Add (1, 2); I.Hlt ])
  in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "r1 = 42" 42 st.Vm.regs.(1)

let test_vm_loop () =
  let code = Codegen.loop_with_syscall ~iterations:5 in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "five syscalls" 5 (List.length (Vm.syscall_trace st));
  Alcotest.(check int) "counter" 5 st.Vm.regs.(1)

let test_vm_call_ret () =
  (* call the function at the end; it sets r3 := 7 and returns. *)
  let code =
    Bytes.concat Bytes.empty
      (List.map I.encode
         [
           I.Call 1l (* skip the hlt: call target = 5+1 = 6 *);
           I.Hlt;
           I.Mov_imm (3, 7l);
           I.Ret;
         ])
  in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "r3 set by callee" 7 st.Vm.regs.(3)

let test_vm_stack_fault () =
  let code = I.encode (I.Pop 0) in
  match Vm.run (Bytes.cat code (I.encode I.Hlt)) ~entry:0 with
  | exception Vm.Fault _ -> ()
  | _ -> Alcotest.fail "expected stack fault"

let run_insns insns =
  let code =
    Bytes.concat Bytes.empty (List.map I.encode (insns @ [ I.Hlt ]))
  in
  Vm.run code ~entry:0

let test_vm_mov_xor_test () =
  let st =
    run_insns
      [ I.Mov_imm (1, 5l); I.Mov (2, 1); I.Xor (1, 1); I.Test (2, 2) ]
  in
  Alcotest.(check int) "mov copied" 5 st.Vm.regs.(2);
  Alcotest.(check int) "xor zeroed" 0 st.Vm.regs.(1);
  Alcotest.(check bool) "test cleared zf (5 land 5 <> 0)" false st.Vm.zf;
  let st = run_insns [ I.Mov_imm (1, 0l); I.Test (1, 1) ] in
  Alcotest.(check bool) "test set zf on zero" true st.Vm.zf

let test_vm_inc_dec () =
  let st = run_insns [ I.Mov_imm (3, 10l); I.Inc 3; I.Inc 3; I.Dec 3 ] in
  Alcotest.(check int) "inc/dec" 11 st.Vm.regs.(3)

let test_vm_signed_branches () =
  (* r1=1, r2=2: jl taken; jg not taken. *)
  let code =
    Bytes.concat Bytes.empty
      (List.map I.encode
         [
           I.Mov_imm (1, 1l);
           I.Mov_imm (2, 2l);
           I.Cmp (1, 2);
           I.Jl 5 (* skip the mov below *);
           I.Mov_imm (7, 111l) (* must be skipped *);
           I.Cmp (2, 1);
           I.Jg 5 (* taken: 2 > 1 *);
           I.Mov_imm (6, 222l) (* must be skipped *);
           I.Hlt;
         ])
  in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "jl skipped the mov" 0 st.Vm.regs.(7);
  Alcotest.(check int) "jg skipped the mov" 0 st.Vm.regs.(6)

let test_new_insn_roundtrips () =
  List.iter
    (fun insn ->
      match I.decode (I.encode insn) 0 with
      | Some (insn', len) ->
        Alcotest.(check bool)
          (Format.asprintf "%a" I.pp insn)
          true
          (I.equal insn insn' && len = I.length insn)
      | None -> Alcotest.failf "decode failed")
    [
      I.Mov (1, 2); I.Xor (3, 4); I.Test (5, 6); I.Inc 7; I.Dec 0;
      I.Jl (-8); I.Jg 127;
    ]

(* --- rewriter -------------------------------------------------------- *)

(* Hooks that implement the monitor side: a hook performs the syscall
   (records it), a trap does the same through the signal path. *)
let monitor_hooks =
  {
    Vm.on_syscall = Vm.record_syscall;
    on_hook = Some (fun _site st -> Vm.record_syscall st);
    on_trap = Some (fun _vec st -> Vm.record_syscall st);
  }


let check_equivalent name code =
  let before = Vm.run ~hooks:monitor_hooks code ~entry:0 in
  let r = R.rewrite code in
  let after = Vm.run ~hooks:monitor_hooks r.R.code ~entry:0 in
  Alcotest.(check bool)
    (name ^ ": same registers")
    true
    (Array.to_list before.Vm.regs = Array.to_list after.Vm.regs);
  Alcotest.(check bool)
    (name ^ ": same syscall trace")
    true
    (Vm.syscall_trace before = Vm.syscall_trace after);
  r

let test_rel8_universal_expansion () =
  (* A conditional branch relocated into a stub must still reach its
     original target even though rel8 no longer fits: layout a syscall
     directly followed by a far-reaching conditional branch. *)
  let insns =
    [
      I.Mov_imm (0, 1l);
      I.Mov_imm (1, 1l);
      I.Mov_imm (2, 1l);
      I.Cmp (1, 2);
      I.Syscall;
      I.Je 5 (* skip the next mov when r1 = r2 (always) *);
      I.Mov_imm (5, 99l);
      I.Hlt;
    ]
  in
  let code = Bytes.concat Bytes.empty (List.map I.encode insns) in
  let before = Vm.run ~hooks:monitor_hooks code ~entry:0 in
  let r = R.rewrite code in
  (* The Je was inside the relocation window, re-emitted in the stub far
     from its target. *)
  Alcotest.(check bool) "je relocated" true (r.R.stats.R.relocated_insns >= 1);
  let after = Vm.run ~hooks:monitor_hooks r.R.code ~entry:0 in
  Alcotest.(check bool) "same registers" true
    (Array.to_list before.Vm.regs = Array.to_list after.Vm.regs);
  Alcotest.(check int) "mov skipped in both" 0 after.Vm.regs.(5)

let test_rewrite_straightline () =
  let code = Codegen.straightline ~syscall_numbers:[ 0; 1; 3 ] in
  let r = check_equivalent "straightline" code in
  Alcotest.(check int) "three sites" 3 r.R.stats.R.total_syscalls;
  Alcotest.(check int) "all jump-dispatched" 3 r.R.stats.R.jump_sites;
  Alcotest.(check int) "no traps" 0 r.R.stats.R.trap_sites

let test_rewrite_no_syscall_instructions_remain () =
  let code = Codegen.straightline ~syscall_numbers:[ 1; 2; 3; 4 ] in
  let r = R.rewrite code in
  Alcotest.(check (list int))
    "no raw syscalls left" [] (D.syscall_sites r.R.code)

let test_rewrite_trap_fallback () =
  let code = Codegen.trap_forcing () in
  let r = check_equivalent "trap fallback" code in
  Alcotest.(check int) "one trap site" 1 r.R.stats.R.trap_sites;
  Alcotest.(check int) "no jump site" 0 r.R.stats.R.jump_sites

let test_rewrite_loop () =
  let code = Codegen.loop_with_syscall ~iterations:7 in
  let r = check_equivalent "loop" code in
  Alcotest.(check int) "one site" 1 r.R.stats.R.total_syscalls

let test_rewrite_preserves_original_length_prefix () =
  let code = Codegen.straightline ~syscall_numbers:[ 1 ] in
  let r = R.rewrite code in
  Alcotest.(check bool)
    "stub appended after original" true
    (Bytes.length r.R.code > Bytes.length code);
  Alcotest.(check int)
    "stub bytes accounted"
    (Bytes.length r.R.code - Bytes.length code)
    r.R.stats.R.stub_bytes

let test_site_at () =
  let code = Codegen.straightline ~syscall_numbers:[ 9; 8 ] in
  let r = R.rewrite code in
  match r.R.sites with
  | [ s1; s2 ] ->
    Alcotest.(check bool) "lookup first" true (R.site_at r.R.sites s1.R.orig_addr = Some s1);
    Alcotest.(check bool) "lookup second" true (R.site_at r.R.sites s2.R.orig_addr = Some s2);
    Alcotest.(check bool) "missing" true (R.site_at r.R.sites 9999 = None)
  | _ -> Alcotest.fail "expected two sites"

(* Property: random programs behave identically after rewriting. *)
let prop_rewrite_equivalence =
  QCheck.Test.make ~name:"rewrite preserves semantics" ~count:200
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (size, seed) ->
      let rng = Prng.create seed in
      let code =
        Codegen.random_program rng ~size:(8 + size) ~syscall_share:0.15
      in
      let before = Vm.run ~hooks:monitor_hooks code ~entry:0 in
      let r = R.rewrite code in
      let after = Vm.run ~hooks:monitor_hooks r.R.code ~entry:0 in
      Array.to_list before.Vm.regs = Array.to_list after.Vm.regs
      && Vm.syscall_trace before = Vm.syscall_trace after
      && D.syscall_sites r.R.code = [])

let prop_sites_cover_all_syscalls =
  QCheck.Test.make ~name:"every syscall gets a site" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let code = Codegen.random_program rng ~size:60 ~syscall_share:0.25 in
      let n_sys = List.length (D.syscall_sites code) in
      let r = R.rewrite code in
      r.R.stats.R.total_syscalls = n_sys
      && List.length r.R.sites = n_sys)

(* --- rewrite cache --------------------------------------------------- *)

let test_cache_rebase_identity () =
  let code = Codegen.straightline ~syscall_numbers:[ 1; 2; 3 ] in
  let cache = RC.create () in
  let cold = R.rewrite ~first_site_id:40 code in
  ignore (RC.prepare cache code);
  let hit = RC.prepare cache ~first_site_id:40 code in
  Alcotest.(check bool) "identical code" true (Bytes.equal cold.R.code hit.R.code);
  Alcotest.(check bool) "identical sites" true (cold.R.sites = hit.R.sites);
  Alcotest.(check bool) "identical stats" true (cold.R.stats = hit.R.stats);
  let s = RC.stats cache in
  Alcotest.(check int) "one miss" 1 s.RC.misses;
  Alcotest.(check int) "one hit" 1 s.RC.hits;
  Alcotest.(check int) "one rebase" 1 s.RC.rebases;
  Alcotest.(check int) "one entry" 1 s.RC.entries

let test_cache_rebase_zero_is_identity () =
  (* Rebasing to id 0 must reproduce the relocatable bytes untouched. *)
  let code = Codegen.straightline ~syscall_numbers:[ 7; 8 ] in
  let rt = R.rewrite_relocatable code in
  let r0 = R.rebase rt ~first_site_id:0 in
  Alcotest.(check bool) "bytes equal" true (Bytes.equal rt.R.rt_code r0.R.code);
  Alcotest.(check bool)
    "fresh copy, not an alias" true
    (rt.R.rt_code != r0.R.code)

let test_cache_eviction () =
  let cache = RC.create ~capacity:2 () in
  let imgs =
    List.map
      (fun n -> Codegen.straightline ~syscall_numbers:[ n ])
      [ 1; 2; 3 ]
  in
  List.iter (fun c -> ignore (RC.prepare cache c)) imgs;
  let s = RC.stats cache in
  Alcotest.(check int) "entries capped" 2 s.RC.entries;
  Alcotest.(check int) "one eviction" 1 s.RC.evictions;
  (* The evicted (oldest) image must miss again; the resident ones hit. *)
  ignore (RC.prepare cache (List.hd imgs));
  ignore (RC.prepare cache (List.nth imgs 2));
  let s = RC.stats cache in
  Alcotest.(check int) "evictee re-misses" 4 s.RC.misses;
  Alcotest.(check int) "resident hits" 1 s.RC.hits

(* Property: serving an image from the cache and rebasing it to an
   arbitrary site-id range is indistinguishable from a cold rewrite at
   that range — same bytes, same stats, same trap-site set. *)
let prop_cache_rebase_equals_cold =
  QCheck.Test.make ~name:"cache hit + rebase == cold rewrite" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 5_000))
    (fun (seed, first_site_id) ->
      let rng = Prng.create seed in
      let code = Codegen.random_program rng ~size:60 ~syscall_share:0.25 in
      let cold = R.rewrite ~first_site_id code in
      let cache = RC.create () in
      ignore (RC.prepare cache code);
      let hit = RC.prepare cache ~first_site_id code in
      let trap_addrs r =
        List.filter_map
          (fun s ->
            if s.R.dispatch = R.Trap then Some s.R.orig_addr else None)
          r.R.sites
      in
      Bytes.equal cold.R.code hit.R.code
      && cold.R.stats = hit.R.stats
      && cold.R.sites = hit.R.sites
      && trap_addrs cold = trap_addrs hit
      && (RC.stats cache).RC.hits = 1
      && (RC.stats cache).RC.misses = 1)

(* --- W^X ------------------------------------------------------------- *)

let test_wx_violation () =
  (match
     Image.make_segment ~name:"bad" ~base:0
       ~perm:{ Image.r = true; w = true; x = true }
       Bytes.empty
   with
  | exception Image.Wx_violation _ -> ()
  | _ -> Alcotest.fail "expected Wx_violation on creation");
  let seg =
    Image.make_segment ~name:"text" ~base:0 ~perm:Image.rx
      (Codegen.straightline ~syscall_numbers:[ 1 ])
  in
  match Image.set_perm seg { Image.r = true; w = true; x = true } with
  | exception Image.Wx_violation _ -> ()
  | _ -> Alcotest.fail "expected Wx_violation on set_perm"

let test_rewrite_segment_respects_wx () =
  let seg =
    Image.make_segment ~name:"text" ~base:0 ~perm:Image.rx
      (Codegen.straightline ~syscall_numbers:[ 1; 2 ])
  in
  let sites, stats = R.rewrite_segment seg in
  Alcotest.(check int) "two sites" 2 (List.length sites);
  Alcotest.(check int) "two jumps" 2 stats.R.jump_sites;
  Alcotest.(check bool) "still executable" true seg.Image.perm.Image.x;
  Alcotest.(check bool) "not writable" false seg.Image.perm.Image.w

(* --- golden images and rewrites --------------------------------------- *)

(* Digests of the pristine image of every profile the workloads launch,
   and of its rewrite at [first_site_id] 17 (code, site list, stats).
   Any change to code generation or rewriting output shows up here. *)
let golden_images =
  [
    ( "default",
      "c4707779db5c67fc68d0e707f93ec2db", "96c80da5df61f7d1d0218aff9206469e",
      "397463f6b068015487ce01553b42b938", "3ce9c72ebf42691d490decfb8c0644fc" );
    ( "Beanstalkd",
      "6ffe8e4b601e9f7746915d8c632b659c", "5e8d7af0ba2e991990c0ecfdddfc42bb",
      "16b068eed92f94eb713494ec334c896d", "f93b0b97a745e7134e6a56f965273483" );
    ( "Lighttpd (wrk)",
      "e26e5ae730052db999be37b2c72c665a", "ae8273230f12ccac498022b5942259ba",
      "7208db29c14b3b72613e8ea8e8238eb0", "a5a15d945ca891562625927562ab6b5b" );
    ( "Memcached",
      "b9f3eb1e6cc8006df40e4a17b28ce821", "c133a116afbec2f6fdbbd66ac06821fe",
      "3eca9b0acc698b00146fcd3b8d602197", "b8c0d298a5dc3fe1471b15a489386ebc" );
    ( "Nginx",
      "fb229bb5e6f3d62438db0098b5271372", "7ea1854b92d6d89ab368ff5f1f0a5e20",
      "28a929cc597c12a3bdad7643f24e1bc8", "d46b68439a31acc1dd9edadada824b0f" );
    ( "Redis",
      "185610bf2b7eff96ace195a941edc8e7", "1fca7e32b48c9efa4f1a285ad7900a41",
      "f4d8658713a93fd35d0c04dbf002cd72", "9a34d4f081cc3cdaf8fcac8e72d3f682" );
    ( "Apache httpd",
      "2cfcdb149435c76b2a9ff34d37b44828", "1a6ac223382edc94ba750e8d1e9f7c37",
      "db8932ec7561b5b913ed590c0be1478a", "c48dc8cdf507ddab35392ff50a776ca4" );
    ( "thttpd",
      "cf398a3d4e21ff78538fc78eb15c5708", "69053c6bbba692720f476be1a3d25636",
      "953c79e810b4f2a6457c711bc20d7a9b", "d0cfd6ebe034566238f9e75aac611aa1" );
    ( "Lighttpd (ab)",
      "e26e5ae730052db999be37b2c72c665a", "ae8273230f12ccac498022b5942259ba",
      "7208db29c14b3b72613e8ea8e8238eb0", "a5a15d945ca891562625927562ab6b5b" );
    ( "Lighttpd (http_load)",
      "e26e5ae730052db999be37b2c72c665a", "ae8273230f12ccac498022b5942259ba",
      "7208db29c14b3b72613e8ea8e8238eb0", "a5a15d945ca891562625927562ab6b5b" );
    ( "Thread grid (64)",
      "2257c22b81b1f324b29ceb5de1d5913f", "6bffd55ace5a2f67b02543c11ef5a596",
      "888afe217d48c59198c7139329724d0e", "d5a404c51887b3ecda636b68d16704ca" );
    ( "Thread grid (256)",
      "6537458ce9c97fefb89da7993842bc7c", "a31f56300979e176beac951ac2ee2b8c",
      "02ff0bf8bc823528063b859b8ee557b2", "db88c53352309c463bc75c79928a0335" );
    ( "serving",
      "b9f3eb1e6cc8006df40e4a17b28ce821", "c133a116afbec2f6fdbbd66ac06821fe",
      "3eca9b0acc698b00146fcd3b8d602197", "b8c0d298a5dc3fe1471b15a489386ebc" );
    ( "164.gzip",
      "a0b44daee06d5e925f15bc90b783610b", "2d746e26999ece5faf75cb419a48a4f7",
      "2b6807fe4edfee6242427114706043d8", "dba407c04c8b679c5c8342569078ba87" );
    ( "175.vpr",
      "c0051035b96d8235d7bc507770fcbcdf", "d7ff7c1e6210cd1faaab573371929185",
      "713c049f4f43206a4d699a3bed019b8e", "09a15dbcefdb4d78f149a5ea171167ba" );
    ( "176.gcc",
      "43ccfec02638591939a3130849ae81e2", "f0fd797b752794a6cc90ff665d702685",
      "c5ca86ea07264955bd1ccd6dd7197b54", "9811f258214eb1df1c5902b6a3e67922" );
    ( "181.mcf",
      "e65c1e8a55e2d64ed0f60f9cabc60c50", "30100b178599ed9bdff36c8657c4e52d",
      "1593c09263bfd5915e029d1bfc19025e", "69738484b97b3fa6fbdab60aa0e93234" );
    ( "186.crafty",
      "6a43a7b6dac6e61c59dbb433c5514165", "38c79eb4c196def54201fba91a29ff30",
      "12c3a6498f05714834b4801a15b11441", "480f7863bd6e1c22bb24a73ec9fd1d99" );
    ( "197.parser",
      "72b978affa22899cf2733990baa718c4", "86c6a50b8cc42ad44aeb5e66815b3351",
      "d3147a76148a51b0f3c0f4f0245bf9de", "6894d86fb216addafe485c241154023b" );
    ( "252.eon",
      "0f2cb9b0bd3cb3995b9d6969edf55119", "1fb1e68ecc0b5e583b16c21787dcc078",
      "1e6aec9f795d0dae5611dffdb6bebb32", "6605d834807788b386d56ce7d1e30ba5" );
    ( "253.perlbmk",
      "2ab400b0d01c0d94afbf00db36f18403", "418c4b96412151a2d84f2a7b53758438",
      "a09bf0c503b4c52d1b612daa0e2048ff", "7b1552141760d12bd59a55a105f2f5b9" );
    ( "254.gap",
      "53c034a1e480a0479bcc6a4108598b96", "751c4b7d7b83c284c21d8dfed0468b64",
      "b2a77bee9b1f4404e3a639bfc0175ec1", "5fd1fb5a303f65dab7b65739bb2599e0" );
    ( "255.vortex",
      "894f48d9215f4c6635f1e3ec5704a11c", "d40b65080d9506e2d7382feef8e3f887",
      "685e7c95534a869e91962f7be708e42a", "6c6241b5b1d7ecc60d5c65c76d797f71" );
    ( "256.bzip2",
      "39a18013a6500284b2b5f9ee07a58073", "99b8ec9f99f3ca7ad1518318c059293e",
      "bc94f7f0a0a450a713ecff19a09fd45d", "2f8f2de5028c70b9c25c237de292c19a" );
    ( "300.twolf",
      "a01d435b1ccf8a9decac28505e1c8238", "74af57c75ed51e3ccd8b93db92d786e9",
      "1dd0899bcd6e3f7a5b321188eda86b74", "483bfe7bb6be16684ddc0b5f207ae961" );
    ( "400.perlbench",
      "ad50eb054265365cfd1c289a60a75246", "2416ff681254f97547dbebe6b542dd59",
      "789f779cfd28fa07b11ac69929dfa2c4", "01cdb223c2cd691e0a532681d88b13ce" );
    ( "401.bzip2",
      "e0b7a05b3f04cda6913f262ef49b066c", "0be88e849be00287f7bf70c76c75841f",
      "212113681b8ddcfdfc251178be4b1f51", "53154e83bc3fb7e550b3f713c2470a5f" );
    ( "403.gcc",
      "4701e645e357e0435ab3dd41eff0e4be", "ddece9dd26b9a515feccf08eecb1fd6f",
      "0389c18f610393f9817ec7993f186b16", "50024f9bdcebec33ef50f0c528754e2f" );
    ( "429.mcf",
      "85c67d7085b818052415d4b63f5fccb3", "347efd147d00a229e8447ee20952b9f3",
      "87b65de2b012585a855436aa7859cae9", "30db5c23c19ab3f2b76f267774b10472" );
    ( "445.gobmk",
      "9671e4a694eef561a3263cbe43f94bb1", "3b5558fa86373db3274efebc1d362038",
      "baf2535092477d6d403735424a9f2427", "63a591a6bfc1434f77daf6ae668c4393" );
    ( "456.hmmer",
      "29714dfcec7dc720d0aa86872ed06aa3", "ecc2e15a9065a9c8fa782c0d35687782",
      "fd7b66074716a752bc4de59848b60844", "f2774b5a4a95bf95271b344cc0a8a603" );
    ( "458.sjeng",
      "a0879b450f94ddc54be795f16402e8ae", "aa0aa3216a8478d99b62c6acbcdc1d14",
      "aa33a3ed2633342c72d08e005015b3a9", "80761d9fcad115da6c95dd234bc721b0" );
    ( "462.libquantum",
      "524e4c181f7e5877c08df1a9d6c857b7", "a0bc5f6e667f986764350e4e52403a0f",
      "0395305c8eb2a17ea11b2ea51b5bdeb7", "df7a2986a972b046b06b645cd78b0b11" );
    ( "464.h264ref",
      "dadcd2e35b9b39ee482f1835333455ec", "10ea06d214ab222d4408f0cd88f70603",
      "90a7fa1fba0ac6b7629267c14e9e404c", "61bcef12eb7862e23c427eaa6d7b5e75" );
    ( "471.omnetpp",
      "3aa7c7e826b10f1b0e9f28983da94968", "a3437ae37f1c9ee3057d17857c38b48a",
      "13ad44afb6237cbaf65430e6901b18f1", "a7ade6d184a61add2d297791ebe9107b" );
    ( "473.astar",
      "723f611d77d3cc6c899fde548c570ea1", "88dd084e7da9bcac9e6cbd8285750d50",
      "7a4a18c865a73527afaf507be22a2a37", "b2813295d4c1cd3a473fa00917fe22be" );
    ( "483.xalancbmk",
      "9728fb0ba399d9ff49c02570639e8ebb", "bb7092d022fb4508eead0f5bf2a4bf2e",
      "5ffee959a86701478cf9a4c7e3252a51", "8490b2cc1fb61ff77856a1f318513d98" );
  ]

(* Every profile a workload launches, by the name its golden row uses.
   [Serving] builds its shard variants internally; "serving" is the
   profile it gives each of them. *)
let launched_profiles () =
  let module W = Varan_workloads in
  let module V = Varan_nvx.Variant in
  (("default", V.default_profile)
  :: List.map
       (fun (w : W.Workload.t) -> (w.W.Workload.w_name, w.W.Workload.profile))
       (W.Catalog.c10k_servers @ W.Catalog.prior_work_servers
      @ W.Catalog.thread_grids))
  @ [ ("serving", { V.code_bytes = 10_000; syscall_share = 0.01; code_seed = 13 }) ]
  @ List.map
      (fun (p : W.Spec.params) ->
        (p.W.Spec.sp_name, (W.Spec.variant_of p p.W.Spec.sp_name).V.profile))
      (W.Spec.cpu2000 @ W.Spec.cpu2006)

let sites_string sites =
  String.concat ";"
    (List.map
       (fun s ->
         Printf.sprintf "%d:%d:%s" s.R.site_id s.R.orig_addr
           (match s.R.dispatch with R.Jump -> "J" | R.Trap -> "T"))
       sites)

let stats_string (s : R.stats) =
  Printf.sprintf "%d/%d/%d/%d/%d" s.R.total_syscalls s.R.jump_sites
    s.R.trap_sites s.R.relocated_insns s.R.stub_bytes

let test_golden_rewrites () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let profiles = launched_profiles () in
  Alcotest.(check (list string))
    "every launched profile has a golden row"
    (List.map (fun (n, _, _, _, _) -> n) golden_images)
    (List.map fst profiles);
  List.iter2
    (fun (name, p) (_, img_md5, code_md5, sites_md5, stats_md5) ->
      let img = Varan_nvx.Variant.image p in
      Alcotest.(check string) (name ^ " image") img_md5 (md5 img);
      let r = R.rewrite ~first_site_id:17 (Bytes.of_string img) in
      Alcotest.(check string)
        (name ^ " code") code_md5
        (md5 (Bytes.to_string r.R.code));
      Alcotest.(check string)
        (name ^ " sites") sites_md5
        (md5 (sites_string r.R.sites));
      Alcotest.(check string)
        (name ^ " stats") stats_md5
        (md5 (stats_string r.R.stats));
      if name = "default" then
        Alcotest.(check string) "default stats" "198/178/20/395/2604"
          (stats_string r.R.stats))
    profiles golden_images

(* Image generation and a cold rewrite allocate deterministically, so the
   spawn path's budget is a tight gate on minor words. *)
let test_spawn_allocation () =
  let module V = Varan_nvx.Variant in
  let img = V.image V.default_profile in
  Alcotest.(check bool) "image generated once" true
    (V.image V.default_profile == img);
  let code = Bytes.of_string img in
  let before = Gc.minor_words () in
  let rt = R.rewrite_relocatable code in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "default image sites" 198 (List.length rt.R.rt_sites);
  if words > 250_000. then
    Alcotest.failf "cold rewrite allocated %.0f minor words (budget 250000)"
      words

(* --- vDSO ------------------------------------------------------------ *)

let test_vdso_build_and_patch () =
  let values =
    [ ("clock_gettime", 111l); ("getcpu", 2l); ("gettimeofday", 333l); ("time", 444l) ]
  in
  let code, symbols = Vdso.build values in
  (* Calling the unpatched function returns its value. *)
  let time_sym = List.find (fun s -> s.Vdso.sym_name = "time") symbols in
  let st = Vm.run code ~entry:time_sym.Vdso.sym_addr in
  Alcotest.(check int) "unpatched returns value" 444 st.Vm.regs.(0);
  (* Patch; calling now triggers the hook. *)
  let p = Vdso.patch code symbols in
  let hook_hits = ref [] in
  let hooks =
    {
      Vm.on_syscall = Vm.record_syscall;
      on_hook =
        Some
          (fun site st ->
            hook_hits := site :: !hook_hits;
            st.Vm.regs.(0) <- 999;
            (* The monitor returns straight to the caller. *)
            st.Vm.pc <- (match st.Vm.stack with [] -> st.Vm.pc | ra :: _ -> ra));
      on_trap = None;
    }
  in
  let st = Vm.run ~hooks p.Vdso.v_code ~entry:time_sym.Vdso.sym_addr in
  Alcotest.(check int) "hooked value" 999 st.Vm.regs.(0);
  Alcotest.(check int) "hook fired once" 1 (List.length !hook_hits);
  (* The trampoline still runs the original implementation. *)
  let tramp = List.assoc "time" p.Vdso.v_trampolines in
  let st = Vm.run ~hooks p.Vdso.v_code ~entry:tramp in
  Alcotest.(check int) "trampoline gives original" 444 st.Vm.regs.(0)

let () =
  Alcotest.run "varan_binary"
    [
      ( "isa",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick
            test_encode_decode_roundtrip;
          Alcotest.test_case "decode invalid" `Quick test_decode_invalid;
          Alcotest.test_case "decode contract" `Quick test_decode_contract;
          Alcotest.test_case "branch target" `Quick test_branch_target;
          Alcotest.test_case "with_target" `Quick test_with_target;
        ] );
      ( "disasm",
        [
          Alcotest.test_case "sweep skips data" `Quick test_sweep_skips_data;
          Alcotest.test_case "branch targets" `Quick
            test_branch_targets_collected;
        ] );
      ( "vm",
        [
          Alcotest.test_case "arithmetic" `Quick test_vm_arithmetic;
          Alcotest.test_case "loop" `Quick test_vm_loop;
          Alcotest.test_case "call/ret" `Quick test_vm_call_ret;
          Alcotest.test_case "stack fault" `Quick test_vm_stack_fault;
          Alcotest.test_case "mov/xor/test" `Quick test_vm_mov_xor_test;
          Alcotest.test_case "inc/dec" `Quick test_vm_inc_dec;
          Alcotest.test_case "signed branches" `Quick test_vm_signed_branches;
          Alcotest.test_case "new insn roundtrips" `Quick
            test_new_insn_roundtrips;
        ] );
      ( "rewriter",
        [
          Alcotest.test_case "straightline" `Quick test_rewrite_straightline;
          Alcotest.test_case "no syscalls remain" `Quick
            test_rewrite_no_syscall_instructions_remain;
          Alcotest.test_case "trap fallback" `Quick test_rewrite_trap_fallback;
          Alcotest.test_case "loop" `Quick test_rewrite_loop;
          Alcotest.test_case "stub accounting" `Quick
            test_rewrite_preserves_original_length_prefix;
          Alcotest.test_case "site lookup" `Quick test_site_at;
          Alcotest.test_case "rel8 universal expansion" `Quick
            test_rel8_universal_expansion;
          QCheck_alcotest.to_alcotest prop_rewrite_equivalence;
          QCheck_alcotest.to_alcotest prop_sites_cover_all_syscalls;
        ] );
      ( "rewrite-cache",
        [
          Alcotest.test_case "rebase identity" `Quick
            test_cache_rebase_identity;
          Alcotest.test_case "rebase to 0 is identity" `Quick
            test_cache_rebase_zero_is_identity;
          Alcotest.test_case "FIFO eviction" `Quick test_cache_eviction;
          QCheck_alcotest.to_alcotest prop_cache_rebase_equals_cold;
        ] );
      ( "image",
        [
          Alcotest.test_case "W^X violation" `Quick test_wx_violation;
          Alcotest.test_case "rewrite_segment W^X" `Quick
            test_rewrite_segment_respects_wx;
        ] );
      ( "golden",
        [
          Alcotest.test_case "image and rewrite digests" `Quick
            test_golden_rewrites;
          Alcotest.test_case "spawn allocation budget" `Quick
            test_spawn_allocation;
        ] );
      ( "vdso",
        [ Alcotest.test_case "build and patch" `Quick test_vdso_build_and_patch ] );
    ]
