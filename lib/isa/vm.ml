type trace_entry =
  | T_syscall of int * int array
  | T_trap of int
  | T_hook of int

type state = {
  regs : int array;
  mutable zf : bool;
  mutable sf : bool;
  mutable pc : int;
  mutable stack : int list;
  mem : (int, int) Hashtbl.t;
  mutable steps : int;
  mutable trace : trace_entry list;
}

exception Fault of string

type hooks = {
  on_syscall : state -> unit;
  on_hook : (int -> state -> unit) option;
  on_trap : (int -> state -> unit) option;
}

let record_syscall st =
  st.trace <- T_syscall (st.regs.(0), Array.sub st.regs 1 6) :: st.trace;
  st.regs.(0) <- 0

(* Syscalls record a trace entry and return 0; traps and hooks fault. *)
let default_hooks =
  { on_syscall = record_syscall; on_hook = None; on_trap = None }

let run ?(hooks = default_hooks) ?(max_steps = 100_000) code ~entry =
  let st =
    {
      regs = Array.make 8 0;
      zf = false;
      sf = false;
      pc = entry;
      stack = [];
      mem = Hashtbl.create 64;
      steps = 0;
      trace = [];
    }
  in
  let running = ref true in
  while !running do
    st.steps <- st.steps + 1;
    if st.steps > max_steps then raise (Fault "step limit exceeded");
    if st.pc < 0 || st.pc >= Bytes.length code then
      raise (Fault (Printf.sprintf "pc out of range: %d" st.pc));
    match Insn.decode code st.pc with
    | None ->
      raise
        (Fault
           (Printf.sprintf "invalid opcode 0x%02x at %04x"
              (Char.code (Bytes.get code st.pc))
              st.pc))
    | Some (insn, len) -> (
      let next = st.pc + len in
      st.pc <- next;
      match insn with
      | Insn.Nop -> ()
      | Insn.Hlt -> running := false
      | Insn.Syscall -> hooks.on_syscall st
      | Insn.Int3 -> (
        match hooks.on_trap with
        | Some f ->
          st.trace <- T_trap (-1) :: st.trace;
          f (-1) st
        | None -> raise (Fault "INT3 with no trap handler"))
      | Insn.Int v -> (
        match hooks.on_trap with
        | Some f ->
          st.trace <- T_trap v :: st.trace;
          f v st
        | None -> raise (Fault "INT with no trap handler"))
      | Insn.Hook site -> (
        match hooks.on_hook with
        | Some f ->
          st.trace <- T_hook site :: st.trace;
          f site st
        | None -> raise (Fault "HOOK with no handler"))
      | Insn.Mov_imm (r, v) -> st.regs.(r) <- Int32.to_int v
      | Insn.Mov (a, b) -> st.regs.(a) <- st.regs.(b)
      | Insn.Add (a, b) -> st.regs.(a) <- st.regs.(a) + st.regs.(b)
      | Insn.Sub (a, b) -> st.regs.(a) <- st.regs.(a) - st.regs.(b)
      | Insn.Xor (a, b) -> st.regs.(a) <- st.regs.(a) lxor st.regs.(b)
      | Insn.Cmp (a, b) ->
        st.zf <- st.regs.(a) = st.regs.(b);
        st.sf <- st.regs.(a) < st.regs.(b)
      | Insn.Test (a, b) ->
        st.zf <- st.regs.(a) land st.regs.(b) = 0;
        st.sf <- false
      | Insn.Inc r -> st.regs.(r) <- st.regs.(r) + 1
      | Insn.Dec r -> st.regs.(r) <- st.regs.(r) - 1
      | Insn.Add_imm (r, v) -> st.regs.(r) <- st.regs.(r) + v
      | Insn.Jmp rel -> st.pc <- next + Int32.to_int rel
      | Insn.Jmp_short rel -> st.pc <- next + rel
      | Insn.Je rel -> if st.zf then st.pc <- next + rel
      | Insn.Jne rel -> if not st.zf then st.pc <- next + rel
      | Insn.Jl rel -> if st.sf then st.pc <- next + rel
      | Insn.Jg rel -> if (not st.sf) && not st.zf then st.pc <- next + rel
      | Insn.Call rel ->
        st.stack <- next :: st.stack;
        st.pc <- next + Int32.to_int rel
      | Insn.Ret -> (
        match st.stack with
        | [] -> running := false
        | ra :: rest ->
          st.stack <- rest;
          st.pc <- ra)
      | Insn.Push r -> st.stack <- st.regs.(r) :: st.stack
      | Insn.Pop r -> (
        match st.stack with
        | [] -> raise (Fault "pop from empty stack")
        | v :: rest ->
          st.regs.(r) <- v;
          st.stack <- rest)
      | Insn.Load (a, b) ->
        st.regs.(a) <-
          (match Hashtbl.find_opt st.mem st.regs.(b) with
          | Some v -> v
          | None -> 0)
      | Insn.Store (a, b) -> Hashtbl.replace st.mem st.regs.(a) st.regs.(b))
  done;
  st

let syscall_trace st =
  List.rev
    (List.filter_map
       (function T_syscall (n, a) -> Some (n, a) | _ -> None)
       st.trace)
