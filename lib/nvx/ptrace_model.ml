module Cost = Varan_cycles.Cost
module Args = Varan_syscall.Args

let per_syscall_overhead (c : Cost.t) =
  (2 * c.Cost.ptrace_stop) + c.Cost.ptrace_getregs + c.Cost.ptrace_setregs
  + c.Cost.lockstep_rendezvous

(* Word-by-word user-memory copy through PTRACE_PEEKDATA/POKEDATA. *)
let copy_cost (c : Cost.t) ~bytes =
  Cost.copy_cycles ~rate_c100:c.Cost.ptrace_copy_per_byte_c100 bytes

let arg_copy_cost c args = copy_cost c ~bytes:(Args.payload_size args)

let result_copy_cost c (result : Args.result) =
  let bytes =
    match result.Args.out with Some b -> Bytes.length b | None -> 0
  in
  copy_cost c ~bytes

let estimated_server_overhead c ~syscalls_per_request ~avg_payload_bytes
    ~request_cycles =
  let per_call =
    per_syscall_overhead c + copy_cost c ~bytes:avg_payload_bytes
  in
  let extra = syscalls_per_request * per_call in
  float_of_int (request_cycles + extra) /. float_of_int request_cycles
