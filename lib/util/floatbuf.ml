(* Growable float array. The load generators record one latency sample
   per request; at millions of requests a [float list] costs a cons cell
   and a boxed float per sample and arrives reversed. This buffer keeps
   samples in arrival order in an unboxed [float array] that doubles on
   demand. *)

type t = { mutable a : float array; mutable len : int }

let create ?(capacity = 1024) () = { a = Array.make (max 1 capacity) 0.0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let clear t = t.len <- 0

let push t x =
  if t.len = Array.length t.a then begin
    let bigger = Array.make (2 * Array.length t.a) 0.0 in
    Array.blit t.a 0 bigger 0 t.len;
    t.a <- bigger
  end;
  t.a.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Floatbuf.get";
  t.a.(i)

let to_array t = Array.sub t.a 0 t.len

let to_list t = Array.to_list (to_array t)

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.a.(i)
  done;
  !acc

let summary t = if t.len = 0 then None else Some (Stats.summarize_array (to_array t))
