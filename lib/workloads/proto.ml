open Varan_kernel

let ( let* ) = Result.bind

let send_msg api fd payload =
  let frame = Bytes.create (4 + Bytes.length payload) in
  Bytes.set_int32_le frame 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 frame 4 (Bytes.length payload);
  Api.write_all api fd frame

(* Read exactly [n] bytes, or [None] on EOF at a frame boundary
   ([eof_ok]); EOF mid-frame is an EIO. *)
let recv_exact api fd n ~eof_ok =
  let out = Bytes.create n in
  let rec go filled =
    if filled >= n then Ok (Some out)
    else
      let* chunk = Api.recv api fd (n - filled) in
      let len = Bytes.length chunk in
      if len = 0 then
        if filled = 0 && eof_ok then Ok None else Error Varan_syscall.Errno.EIO
      else begin
        Bytes.blit chunk 0 out filled len;
        go (filled + len)
      end
  in
  go 0

let recv_msg api fd =
  let* header = recv_exact api fd 4 ~eof_ok:true in
  match header with
  | None -> Ok None
  | Some h ->
    let len = Int32.to_int (Bytes.get_int32_le h 0) in
    if len = 0 then Ok (Some Bytes.empty)
    else
      let* body = recv_exact api fd len ~eof_ok:false in
      (match body with
      | Some b -> Ok (Some b)
      | None -> Error Varan_syscall.Errno.EIO)

let send_str api fd s = send_msg api fd (Bytes.of_string s)
