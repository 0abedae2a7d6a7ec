open Varan_kernel
module Flags = Varan_kernel.Flags

type config = {
  port : int;
  binlog_path : string option;
  work_cycles : int;
  expected_conns : int;
}

let put_cmd payload = Bytes.cat (Bytes.of_string "put ") payload

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Varan_syscall.Errno.name e)

type state = {
  jobs : (int * string) Queue.t;
  mutable next_id : int;
  mutable binlog_fd : int option; (* kept open, as the real server does *)
}

let binlog cfg st api line =
  match cfg.binlog_path with
  | None -> ()
  | Some path ->
    let fd =
      match st.binlog_fd with
      | Some fd -> fd
      | None ->
        let fd =
          ok_exn "open binlog"
            (Api.openf api path
               (Flags.o_wronly lor Flags.o_creat lor Flags.o_append))
        in
        st.binlog_fd <- Some fd;
        fd
    in
    ignore (Api.write_str api fd (line ^ "\n"))

let handle cfg st api req =
  Api.compute api cfg.work_cycles;
  let text = Bytes.to_string req in
  let reply =
    if String.length text > 4 && String.sub text 0 4 = "put " then begin
      let payload = String.sub text 4 (String.length text - 4) in
      let id = st.next_id in
      st.next_id <- st.next_id + 1;
      Queue.push (id, payload) st.jobs;
      binlog cfg st api (Printf.sprintf "put %d %d" id (String.length payload));
      Printf.sprintf "INSERTED %d" id
    end
    else if text = "reserve" then begin
      match Queue.take_opt st.jobs with
      | Some (id, payload) -> Printf.sprintf "RESERVED %d %s" id payload
      | None -> "TIMED_OUT"
    end
    else if String.length text > 7 && String.sub text 0 7 = "delete " then begin
      binlog cfg st api text;
      "DELETED"
    end
    else "UNKNOWN_COMMAND"
  in
  Bytes.of_string reply

let make_body cfg () =
  let st = { jobs = Queue.create (); next_id = 1; binlog_fd = None } in
  fun ~unit_idx api ->
    if unit_idx = 0 then
      Server_core.epoll_server ~port:cfg.port
        ~expected_conns:cfg.expected_conns
        ~handler:(fun api req -> handle cfg st api req)
        api
