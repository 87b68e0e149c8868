open Signal

(* Names are canonical: a signal is numbered by its index in the
   circuit's topological order, not by its process-global uid, so two
   builds of one design emit the same text. *)
let sig_name index s =
  match name_of s with
  | Some n -> Printf.sprintf "%s_%d" n (index s)
  | None -> (
      match kind s with
      | Input n -> n
      | _ -> Printf.sprintf "s_%d" (index s))

(* Canonical memory names, for the circuit's memories in their
   discovery order ({!Circuit.memories}): a memory keeps the name given
   to Mem.create, and an unnamed one is [mem_<k>], counting up in that
   order past every name in [declared] and every given memory name. *)
let canonical_memories ~declared mems =
  let taken = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace taken n ()) declared;
  List.iter
    (fun m ->
      Option.iter (fun n -> Hashtbl.replace taken n ()) (mem_given_name m))
    mems;
  let next = ref 0 in
  let rec fresh () =
    let name = Printf.sprintf "mem_%d" !next in
    incr next;
    if Hashtbl.mem taken name then fresh () else name
  in
  let names = Hashtbl.create 8 in
  List.iter
    (fun m ->
      Hashtbl.add names (mem_uid m)
        (match mem_given_name m with Some n -> n | None -> fresh ()))
    mems;
  fun m -> Hashtbl.find names (mem_uid m)

let range w = if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1)

let const_literal b =
  Printf.sprintf "%d'h%s" (Bits.width b) (Bits.to_hex_string b)

let op2_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Eq -> "=="
  | Lt -> "<"

let of_circuit circuit =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let inputs = Circuit.inputs circuit in
  let outputs = Circuit.outputs circuit in
  let ports =
    ("clk" :: List.map fst inputs) @ List.map fst outputs
    |> String.concat ", "
  in
  pr "module %s (%s);\n" (Circuit.name circuit) ports;
  pr "  input clk;\n";
  List.iter (fun (n, w) -> pr "  input %s%s;\n" (range w) n) inputs;
  List.iter
    (fun (n, s) -> pr "  output %s%s;\n" (range (width s)) n)
    outputs;
  (* declarations *)
  let topo = Circuit.signals_in_topo_order circuit in
  let index_of = Hashtbl.create 256 in
  List.iteri (fun i s -> Hashtbl.add index_of (uid s) i) topo;
  let n = sig_name (fun s -> Hashtbl.find index_of (uid s)) in
  (* every other name the module declares (an input's signal name is its
     port name) *)
  let declared = ("clk" :: List.map fst outputs) @ List.map n topo in
  let memories = Circuit.memories circuit in
  let mem_name = canonical_memories ~declared memories in
  List.iter
    (fun s ->
      match kind s with
      | Input _ -> ()
      | Reg _ | Mem_read_sync _ -> pr "  reg %s%s;\n" (range (width s)) (n s)
      | _ -> pr "  wire %s%s;\n" (range (width s)) (n s))
    topo;
  List.iter
    (fun m ->
      pr "  reg %s%s [0:%d];\n"
        (range (mem_width m))
        (mem_name m)
        (mem_size m - 1))
    memories;
  (* combinational assigns *)
  List.iter
    (fun s ->
      match kind s with
      | Const b -> pr "  assign %s = %s;\n" (n s) (const_literal b)
      | Input _ | Reg _ | Mem_read_sync _ -> ()
      | Wire r ->
          let d = Option.get !r in
          pr "  assign %s = %s;\n" (n s) (n d)
      | Op2 (op, a, b) ->
          pr "  assign %s = %s %s %s;\n" (n s) (n a) (op2_str op) (n b)
      | Not a -> pr "  assign %s = ~%s;\n" (n s) (n a)
      | Shift (Sll, amt, a) -> pr "  assign %s = %s << %d;\n" (n s) (n a) amt
      | Shift (Srl, amt, a) -> pr "  assign %s = %s >> %d;\n" (n s) (n a) amt
      | Shift (Sra, amt, a) ->
          pr "  assign %s = $signed(%s) >>> %d;\n" (n s) (n a) amt
      | Select (hi, lo, a) ->
          if width a = 1 then pr "  assign %s = %s;\n" (n s) (n a)
          else pr "  assign %s = %s[%d:%d];\n" (n s) (n a) hi lo
      | Concat parts ->
          pr "  assign %s = {%s};\n" (n s)
            (String.concat ", " (List.map n parts))
      | Mux (sel, cases) ->
          let n_cases = List.length cases in
          if n_cases = 2 then
            pr "  assign %s = %s ? %s : %s;\n" (n s) (n sel)
              (n (List.nth cases 1))
              (n (List.nth cases 0))
          else begin
            (* chained conditional with clamped index *)
            let parts =
              List.mapi
                (fun i c ->
                  if i = n_cases - 1 then n c
                  else Printf.sprintf "(%s == %d) ? %s : " (n sel) i (n c))
                cases
            in
            pr "  assign %s = %s;\n" (n s) (String.concat "" parts)
          end
      | Mem_read_async (m, addr) ->
          pr "  assign %s = %s[%s];\n" (n s) (mem_name m) (n addr))
    topo;
  (* sequential block *)
  pr "  always @(posedge clk) begin\n";
  List.iter
    (fun s ->
      match kind s with
      | Reg { d; enable; clear; init } ->
          let body = Printf.sprintf "%s <= %s;" (n s) (n d) in
          let body =
            match enable with
            | None -> body
            | Some e -> Printf.sprintf "if (%s) %s" (n e) body
          in
          let body =
            match clear with
            | None -> body
            | Some c ->
                Printf.sprintf "if (%s) %s <= %s; else begin %s end" (n c)
                  (n s) (const_literal init) body
          in
          pr "    %s\n" body
      | Mem_read_sync (m, addr, enable) ->
          pr "    if (%s) %s <= %s[%s];\n" (n enable) (n s) (mem_name m)
            (n addr)
      | _ -> ())
    topo;
  List.iter
    (fun m ->
      List.iter
        (fun wp ->
          pr "    if (%s) %s[%s] <= %s;\n" (n wp.wp_enable) (mem_name m)
            (n wp.wp_addr) (n wp.wp_data))
        (mem_write_ports m))
    memories;
  pr "  end\n";
  List.iter (fun (name, s) -> pr "  assign %s = %s;\n" name (n s)) outputs;
  pr "endmodule\n";
  Buffer.contents buf
