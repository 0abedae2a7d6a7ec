type reg = int

type t =
  | Nop
  | Syscall
  | Int3
  | Int of int
  | Hook of int
  | Mov_imm of reg * int32
  | Mov of reg * reg
  | Add of reg * reg
  | Sub of reg * reg
  | Xor of reg * reg
  | Cmp of reg * reg
  | Test of reg * reg
  | Inc of reg
  | Dec of reg
  | Add_imm of reg * int
  | Jmp of int32
  | Jmp_short of int
  | Je of int
  | Jne of int
  | Jl of int
  | Jg of int
  | Call of int32
  | Ret
  | Push of reg
  | Pop of reg
  | Load of reg * reg
  | Store of reg * reg
  | Hlt

let length = function
  | Nop | Syscall | Int3 | Ret | Hlt -> 1
  | Push _ | Pop _ | Inc _ | Dec _ -> 1
  | Int _ | Jmp_short _ | Je _ | Jne _ | Jl _ | Jg _ -> 2
  | Mov _ | Add _ | Sub _ | Xor _ | Cmp _ | Test _ | Load _ | Store _ -> 2
  | Add_imm _ -> 3
  | Hook _ | Mov_imm _ | Jmp _ | Call _ -> 5

(* Opcodes (loosely x86-flavoured):
   0x90 NOP          0x05 SYSCALL      0xCC INT3      0xCD INT imm8
   0x0F HOOK imm32   0xB8+r MOV imm32  0x01 ADD rr    0x29 SUB rr
   0x39 CMP rr       0x83 ADDI r imm8  0xE9 JMP rel32 0xEB JMP rel8
   0x74 JE rel8      0x75 JNE rel8     0xE8 CALL rel32 0xC3 RET
   0x50+r PUSH       0x58+r POP        0x8B LOAD rr   0x89 STORE rr
   0xF4 HLT *)

let regpair a b = Char.chr (((a land 0xF) lsl 4) lor (b land 0xF))

let encode_into buf ofs insn =
  let set i c = Bytes.set buf (ofs + i) c in
  let set_b i v = Bytes.set buf (ofs + i) (Char.chr (v land 0xFF)) in
  let set_i32 i v = Bytes.set_int32_le buf (ofs + i) v in
  (match insn with
  | Nop -> set 0 '\x90'
  | Syscall -> set 0 '\x05'
  | Int3 -> set 0 '\xCC'
  | Int v ->
    set 0 '\xCD';
    set_b 1 v
  | Hook site ->
    set 0 '\x0F';
    set_i32 1 (Int32.of_int site)
  | Mov_imm (r, v) ->
    set_b 0 (0xB8 + (r land 7));
    set_i32 1 v
  | Add (a, b) ->
    set 0 '\x01';
    set 1 (regpair a b)
  | Mov (a, b) ->
    set 0 '\x8A';
    set 1 (regpair a b)
  | Xor (a, b) ->
    set 0 '\x31';
    set 1 (regpair a b)
  | Test (a, b) ->
    set 0 '\x85';
    set 1 (regpair a b)
  | Inc r -> set_b 0 (0x40 + (r land 7))
  | Dec r -> set_b 0 (0x48 + (r land 7))
  | Jl rel ->
    set 0 '\x7C';
    set_b 1 rel
  | Jg rel ->
    set 0 '\x7F';
    set_b 1 rel
  | Sub (a, b) ->
    set 0 '\x29';
    set 1 (regpair a b)
  | Cmp (a, b) ->
    set 0 '\x39';
    set 1 (regpair a b)
  | Add_imm (r, v) ->
    set 0 '\x83';
    set_b 1 r;
    set_b 2 v
  | Jmp rel ->
    set 0 '\xE9';
    set_i32 1 rel
  | Jmp_short rel ->
    set 0 '\xEB';
    set_b 1 rel
  | Je rel ->
    set 0 '\x74';
    set_b 1 rel
  | Jne rel ->
    set 0 '\x75';
    set_b 1 rel
  | Call rel ->
    set 0 '\xE8';
    set_i32 1 rel
  | Ret -> set 0 '\xC3'
  | Push r -> set_b 0 (0x50 + (r land 7))
  | Pop r -> set_b 0 (0x58 + (r land 7))
  | Load (a, b) ->
    set 0 '\x8B';
    set 1 (regpair a b)
  | Store (a, b) ->
    set 0 '\x89';
    set 1 (regpair a b)
  | Hlt -> set 0 '\xF4');
  length insn

let encode insn =
  let b = Bytes.create (length insn) in
  ignore (encode_into b 0 insn);
  b

let signed8 v = if v >= 128 then v - 256 else v

(* Byte-field readers for [decode]: top-level so decoding an instruction
   allocates nothing but its result. *)
let u8 buf i = Char.code (Bytes.get buf i)
let s8 buf i = signed8 (u8 buf i)
let hi buf i = u8 buf i lsr 4
let lo buf i = u8 buf i land 0xF

let decode buf ofs =
  let room = Bytes.length buf - ofs in
  if room <= 0 then None
  else
    let a = ofs + 1 in
    match u8 buf ofs with
    | 0x90 -> Some (Nop, 1)
    | 0x05 -> Some (Syscall, 1)
    | 0xCC -> Some (Int3, 1)
    | 0xC3 -> Some (Ret, 1)
    | 0xF4 -> Some (Hlt, 1)
    | op when op >= 0x40 && op <= 0x47 -> Some (Inc (op - 0x40), 1)
    | op when op >= 0x48 && op <= 0x4F -> Some (Dec (op - 0x48), 1)
    | op when op >= 0x50 && op <= 0x57 -> Some (Push (op - 0x50), 1)
    | op when op >= 0x58 && op <= 0x5F -> Some (Pop (op - 0x58), 1)
    | (0xCD | 0x01 | 0x8A | 0x31 | 0x85 | 0x29 | 0x39 | 0x8B | 0x89 | 0x7C
      | 0x7F | 0xEB | 0x74 | 0x75) as op ->
      if room < 2 then None
      else
        let insn =
          match op with
          | 0xCD -> Int (u8 buf a)
          | 0x01 -> Add (hi buf a, lo buf a)
          | 0x8A -> Mov (hi buf a, lo buf a)
          | 0x31 -> Xor (hi buf a, lo buf a)
          | 0x85 -> Test (hi buf a, lo buf a)
          | 0x29 -> Sub (hi buf a, lo buf a)
          | 0x39 -> Cmp (hi buf a, lo buf a)
          | 0x8B -> Load (hi buf a, lo buf a)
          | 0x89 -> Store (hi buf a, lo buf a)
          | 0x7C -> Jl (s8 buf a)
          | 0x7F -> Jg (s8 buf a)
          | 0xEB -> Jmp_short (s8 buf a)
          | 0x74 -> Je (s8 buf a)
          | _ -> Jne (s8 buf a)
        in
        Some (insn, 2)
    | 0x83 ->
      if room < 3 then None else Some (Add_imm (u8 buf a, s8 buf (a + 1)), 3)
    | (0x0F | 0xE9 | 0xE8) as op ->
      if room < 5 then None
      else
        let v = Bytes.get_int32_le buf a in
        let insn =
          match op with
          | 0x0F -> Hook (Int32.to_int v)
          | 0xE9 -> Jmp v
          | _ -> Call v
        in
        Some (insn, 5)
    | op when op >= 0xB8 && op <= 0xBF ->
      if room < 5 then None
      else Some (Mov_imm (op - 0xB8, Bytes.get_int32_le buf a), 5)
    | _ -> None

let is_branch = function
  | Jmp _ | Jmp_short _ | Je _ | Jne _ | Jl _ | Jg _ | Call _ -> true
  | _ -> false

let branch_target ~at insn =
  let next = at + length insn in
  match insn with
  | Jmp rel | Call rel -> Some (next + Int32.to_int rel)
  | Jmp_short rel | Je rel | Jne rel | Jl rel | Jg rel -> Some (next + rel)
  | _ -> None

let fits8 v = v >= -128 && v <= 127

let with_target ~at insn target =
  let next = at + length insn in
  let rel = target - next in
  match insn with
  | Jmp _ -> Some (Jmp (Int32.of_int rel))
  | Call _ -> Some (Call (Int32.of_int rel))
  | Jmp_short _ -> if fits8 rel then Some (Jmp_short rel) else None
  | Je _ -> if fits8 rel then Some (Je rel) else None
  | Jne _ -> if fits8 rel then Some (Jne rel) else None
  | Jl _ -> if fits8 rel then Some (Jl rel) else None
  | Jg _ -> if fits8 rel then Some (Jg rel) else None
  | _ -> None

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Syscall -> Format.pp_print_string ppf "syscall"
  | Int3 -> Format.pp_print_string ppf "int3"
  | Int v -> Format.fprintf ppf "int 0x%x" v
  | Hook s -> Format.fprintf ppf "hook %d" s
  | Mov_imm (r, v) -> Format.fprintf ppf "mov r%d, %ld" r v
  | Add (a, b) -> Format.fprintf ppf "add r%d, r%d" a b
  | Mov (a, b) -> Format.fprintf ppf "mov r%d, r%d" a b
  | Xor (a, b) -> Format.fprintf ppf "xor r%d, r%d" a b
  | Test (a, b) -> Format.fprintf ppf "test r%d, r%d" a b
  | Inc r -> Format.fprintf ppf "inc r%d" r
  | Dec r -> Format.fprintf ppf "dec r%d" r
  | Jl rel -> Format.fprintf ppf "jl %+d" rel
  | Jg rel -> Format.fprintf ppf "jg %+d" rel
  | Sub (a, b) -> Format.fprintf ppf "sub r%d, r%d" a b
  | Cmp (a, b) -> Format.fprintf ppf "cmp r%d, r%d" a b
  | Add_imm (r, v) -> Format.fprintf ppf "add r%d, %d" r v
  | Jmp rel -> Format.fprintf ppf "jmp %+ld" rel
  | Jmp_short rel -> Format.fprintf ppf "jmp short %+d" rel
  | Je rel -> Format.fprintf ppf "je %+d" rel
  | Jne rel -> Format.fprintf ppf "jne %+d" rel
  | Call rel -> Format.fprintf ppf "call %+ld" rel
  | Ret -> Format.pp_print_string ppf "ret"
  | Push r -> Format.fprintf ppf "push r%d" r
  | Pop r -> Format.fprintf ppf "pop r%d" r
  | Load (a, b) -> Format.fprintf ppf "load r%d, [r%d]" a b
  | Store (a, b) -> Format.fprintf ppf "store [r%d], r%d" a b
  | Hlt -> Format.pp_print_string ppf "hlt"

let equal a b = a = b
