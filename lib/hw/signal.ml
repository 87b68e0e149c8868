type t = {
  id : int;
  width : int;
  knd : kind;
  mutable name : string option;
}

and kind =
  | Const of Bits.t
  | Input of string
  | Wire of t option ref
  | Op2 of op2 * t * t
  | Not of t
  | Shift of shift * int * t
  | Mux of t * t list
  | Select of int * int * t
  | Concat of t list
  | Reg of reg_spec
  | Mem_read_async of mem_t * t
  | Mem_read_sync of mem_t * t * t

and op2 = Add | Sub | Mul | And | Or | Xor | Eq | Lt
and shift = Sll | Srl | Sra
and reg_spec = { d : t; enable : t option; clear : t option; init : Bits.t }
and write_port = { wp_enable : t; wp_addr : t; wp_data : t }

and mem_t = {
  m_id : int;
  m_name : string option; (* as given to [Mem.create] *)
  m_size : int;
  m_width : int;
  mutable m_writes : write_port list;
}

let next_id = ref 0

(* innermost active tracking scope, if any (see [tracking]) *)
let trace : t list ref option ref = ref None

let fresh width knd =
  incr next_id;
  let s = { id = !next_id; width; knd; name = None } in
  (match !trace with Some acc -> acc := s :: !acc | None -> ());
  s

let tracking f =
  let acc = ref [] in
  let saved = !trace in
  trace := Some acc;
  let r = Fun.protect ~finally:(fun () -> trace := saved) f in
  (r, List.rev !acc)

let uid t = t.id
let width t = t.width
let kind t = t.knd

let const b = fresh (Bits.width b) (Const b)
let of_int ~width n = const (Bits.of_int ~width n)
let vdd = const (Bits.one 1)
let gnd = const (Bits.zero 1)
let zero w = const (Bits.zero w)

let input name width =
  if width <= 0 then invalid_arg "Signal.input: width must be positive";
  fresh width (Input name)

let wire width = fresh width (Wire (ref None))

let assign w d =
  match w.knd with
  | Wire r -> (
      if w.width <> d.width then
        invalid_arg
          (Printf.sprintf "Signal.assign: width mismatch (%d vs %d)" w.width
             d.width);
      match !r with
      | Some _ -> invalid_arg "Signal.assign: wire already assigned"
      | None -> r := Some d)
  | _ -> invalid_arg "Signal.assign: not a wire"

let same_width op a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Signal.%s: width mismatch (%d vs %d)" op a.width b.width)

let op2 op name a b =
  same_width name a b;
  let w = match op with Eq | Lt -> 1 | _ -> a.width in
  fresh w (Op2 (op, a, b))

let add a b = op2 Add "add" a b
let sub a b = op2 Sub "sub" a b
let mul a b = op2 Mul "mul" a b
let ( +: ) = add
let ( -: ) = sub
let ( *: ) = mul
let ( &: ) a b = op2 And "and" a b
let ( |: ) a b = op2 Or "or" a b
let ( ^: ) a b = op2 Xor "xor" a b
let lnot a = fresh a.width (Not a)
let ( ==: ) a b = op2 Eq "eq" a b
let ( <: ) a b = op2 Lt "lt" a b
let ( <>: ) a b = lnot (a ==: b)
let ( >: ) a b = b <: a
let ( <=: ) a b = lnot (b <: a)
let ( >=: ) a b = lnot (a <: b)

let shift dir a n =
  if n < 0 then invalid_arg "Signal.shift: negative amount";
  fresh a.width (Shift (dir, n, a))

let sll a n = shift Sll a n
let srl a n = shift Srl a n
let sra a n = shift Sra a n

let mux2 sel on_true on_false =
  if sel.width <> 1 then invalid_arg "Signal.mux2: selector must be 1 bit";
  same_width "mux2" on_true on_false;
  fresh on_true.width (Mux (sel, [ on_false; on_true ]))

let mux sel cases =
  match cases with
  | [] -> invalid_arg "Signal.mux: no cases"
  | first :: rest ->
      List.iter (same_width "mux" first) rest;
      let n = List.length cases in
      if sel.width < Sys.int_size - 2 && n > 1 lsl sel.width then
        invalid_arg
          (Printf.sprintf
             "Signal.mux: %d-bit selector can only reach %d of %d cases"
             sel.width (1 lsl sel.width) n);
      fresh first.width (Mux (sel, cases))

let select t ~hi ~lo =
  if lo < 0 || hi < lo || hi >= t.width then
    invalid_arg
      (Printf.sprintf "Signal.select: [%d:%d] out of range for width %d" hi lo
         t.width);
  fresh (hi - lo + 1) (Select (hi, lo, t))

let bit t i = select t ~hi:i ~lo:i
let msb t = bit t (t.width - 1)

let concat parts =
  match parts with
  | [] -> invalid_arg "Signal.concat: empty"
  | _ ->
      let w = List.fold_left (fun acc s -> acc + s.width) 0 parts in
      fresh w (Concat parts)

let uresize t w =
  if w = t.width then t
  else if w < t.width then select t ~hi:(w - 1) ~lo:0
  else concat [ zero (w - t.width); t ]

let repeat t n =
  if n < 1 then invalid_arg "Signal.repeat: count must be >= 1";
  concat (List.init n (fun _ -> t))

let sext t w =
  if w < t.width then select t ~hi:(w - 1) ~lo:0
  else if w = t.width then t
  else concat [ repeat (msb t) (w - t.width); t ]

let reduce_or t = zero t.width <: t

let reg ?enable ?clear ?init d =
  let init = Option.value init ~default:(Bits.zero d.width) in
  if Bits.width init <> d.width then
    invalid_arg "Signal.reg: init width mismatch";
  (match enable with
  | Some e when e.width <> 1 -> invalid_arg "Signal.reg: enable must be 1 bit"
  | _ -> ());
  (match clear with
  | Some c when c.width <> 1 -> invalid_arg "Signal.reg: clear must be 1 bit"
  | _ -> ());
  fresh d.width (Reg { d; enable; clear; init })

(* an unnamed memory is called after its uid *)
let mem_name (m : mem_t) =
  match m.m_name with Some n -> n | None -> Printf.sprintf "mem_%d" m.m_id

module Mem = struct
  type mem = mem_t

  let create ?name ~size ~width () =
    if size <= 0 || width <= 0 then invalid_arg "Mem.create: bad dimensions";
    incr next_id;
    {
      m_id = !next_id;
      m_name = name;
      m_size = size;
      m_width = width;
      m_writes = [];
    }

  (* bits needed to index [size] entries (>= 1: an address port always has
     at least one bit) *)
  let addr_bits_for size =
    let rec go k = if 1 lsl k >= size then k else go (k + 1) in
    max 1 (go 0)

  let addr_ok m addr =
    (* the address must be able to reach every entry; wider addresses are
       accepted here and range-checked at simulation time (the linter
       flags them) *)
    if addr.width < addr_bits_for m.m_size then
      invalid_arg
        (Printf.sprintf
           "Signal.Mem: %d-bit address cannot index %s (%d entries need %d \
            bits)"
           addr.width (mem_name m) m.m_size (addr_bits_for m.m_size))

  let write m ~enable ~addr ~data =
    if enable.width <> 1 then invalid_arg "Mem.write: enable must be 1 bit";
    if data.width <> m.m_width then invalid_arg "Mem.write: data width";
    addr_ok m addr;
    m.m_writes <- { wp_enable = enable; wp_addr = addr; wp_data = data } :: m.m_writes

  let read_async m ~addr =
    addr_ok m addr;
    fresh m.m_width (Mem_read_async (m, addr))

  let read_sync m ?(enable = vdd) ~addr () =
    addr_ok m addr;
    if enable.width <> 1 then invalid_arg "Mem.read_sync: enable must be 1 bit";
    fresh m.m_width (Mem_read_sync (m, addr, enable))

  let size m = m.m_size
end

let ( -- ) t n =
  t.name <- Some n;
  t

let name_of t = t.name
let mem_uid (m : mem_t) = m.m_id
let mem_addr_bits (m : mem_t) = Mem.addr_bits_for m.m_size
let mem_size (m : mem_t) = m.m_size
let mem_width (m : mem_t) = m.m_width
let mem_given_name (m : mem_t) = m.m_name
let mem_write_ports (m : mem_t) = List.rev m.m_writes
