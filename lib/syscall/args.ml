type arg =
  | Int of int
  | Str of string
  | Buf_in of Bytes.t
  | Buf_out of int

type t = arg array

type result = {
  ret : int;
  out : Bytes.t option;
  fd_object : Obj.t option;
}

let ok ret = { ret; out = None; fd_object = None }
let ok_out ret out = { ret; out = Some out; fd_object = None }
let err e = { ret = -Errno.to_int e; out = None; fd_object = None }
let errno_of r = if r.ret < 0 then Errno.of_int (-r.ret) else None

let bad i what = invalid_arg (Printf.sprintf "Args: argument %d is not %s" i what)

let int_arg (a : t) i =
  match a.(i) with Int n -> n | _ -> bad i "an Int"

let str_arg (a : t) i =
  match a.(i) with Str s -> s | _ -> bad i "a Str"

let buf_in_arg (a : t) i =
  match a.(i) with Buf_in b -> b | _ -> bad i "a Buf_in"

let buf_out_arg (a : t) i =
  match a.(i) with Buf_out n -> n | _ -> bad i "a Buf_out"

let payload_size (a : t) =
  Array.fold_left
    (fun acc arg ->
      match arg with
      | Str s -> acc + String.length s + 1
      | Buf_in b -> acc + Bytes.length b
      | Int _ | Buf_out _ -> acc)
    0 a

let pp_arg ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s
  | Buf_in b -> Format.fprintf ppf "<in:%dB>" (Bytes.length b)
  | Buf_out n -> Format.fprintf ppf "<out:%dB>" n

let pp ppf (a : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_arg)
    (Array.to_seq a)

let pp_result ppf r =
  match errno_of r with
  | Some e -> Format.fprintf ppf "-%s" (Errno.name e)
  | None -> (
    match r.out with
    | None -> Format.fprintf ppf "%d" r.ret
    | Some b -> Format.fprintf ppf "%d <out:%dB>" r.ret (Bytes.length b))
