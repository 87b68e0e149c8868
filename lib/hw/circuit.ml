open Signal

type t = {
  name : string;
  outputs : (string * Signal.t) list;
  inputs : (string * int) list;
  topo : Signal.t list;
  registers : Signal.t list;
  memories : Signal.Mem.mem list;
  sync_reads : Signal.t list;
}

(* Combinational fan-in of a node: the signals whose *current-cycle* value
   is needed to evaluate it. Registers and sync reads depend on state, not
   on their inputs, so they contribute nothing here. *)
let comb_deps s =
  match kind s with
  | Const _ | Input _ | Reg _ | Mem_read_sync _ -> []
  | Wire r -> ( match !r with Some d -> [ d ] | None -> [])
  | Op2 (_, a, b) -> [ a; b ]
  | Not a | Shift (_, _, a) | Select (_, _, a) -> [ a ]
  | Mux (sel, cases) -> sel :: cases
  | Concat parts -> parts
  | Mem_read_async (_, addr) -> [ addr ]

(* Inputs of sequential elements — reachable, but evaluated at the cycle
   boundary. *)
let seq_deps s =
  match kind s with
  | Reg { d; enable; clear; _ } ->
      (d :: Option.to_list enable) @ Option.to_list clear
  | Mem_read_sync (_, addr, enable) -> [ addr; enable ]
  | _ -> []

let mem_of s =
  match kind s with
  | Mem_read_async (m, _) | Mem_read_sync (m, _, _) -> Some m
  | _ -> None

let kind_name s =
  match kind s with
  | Const _ -> "const"
  | Input _ -> "input"
  | Wire _ -> "wire"
  | Op2 (op, _, _) -> (
      match op with
      | Add -> "add"
      | Sub -> "sub"
      | Mul -> "mul"
      | And -> "and"
      | Or -> "or"
      | Xor -> "xor"
      | Eq -> "eq"
      | Lt -> "lt")
  | Not _ -> "not"
  | Shift _ -> "shift"
  | Mux _ -> "mux"
  | Select _ -> "select"
  | Concat _ -> "concat"
  | Reg _ -> "reg"
  | Mem_read_async _ -> "mem-read-async"
  | Mem_read_sync _ -> "mem-read-sync"

let describe s =
  match name_of s with
  | Some n -> Printf.sprintf "signal #%d (%s, %s)" (uid s) n (kind_name s)
  | None -> Printf.sprintf "signal #%d (%s)" (uid s) (kind_name s)

let analyze ~name ~outputs =
  let diags = ref [] in
  let add ?loc ?hint ~rule msg =
    diags := Diag.make ?loc ?hint ~rule ~severity:Diag.Error msg :: !diags
  in
  (match outputs with [] -> add ~rule:"no-outputs" "no outputs" | _ -> ());
  let seen_ports = Hashtbl.create 8 in
  List.iter
    (fun (port, _) ->
      if Hashtbl.mem seen_ports port then
        add ~rule:"dup-output-port" ("duplicate output port " ^ port)
      else Hashtbl.add seen_ports port ())
    outputs;
  let visited = Hashtbl.create 256 in
  let all_nodes = ref [] in
  let mem_seen = Hashtbl.create 8 in
  let memories = ref [] in
  (* Reach every node (combinational + sequential edges + memory write
     ports), recording the first consumer of each for error context. An
     unassigned wire is reported as a diagnostic and treated as a source
     so the rest of the graph can still be checked. *)
  let rec reach ~from s =
    if not (Hashtbl.mem visited (uid s)) then begin
      Hashtbl.add visited (uid s) ();
      all_nodes := s :: !all_nodes;
      (match kind s with
      | Wire r when Option.is_none !r ->
          add ~rule:"undriven-wire" ~loc:(describe s)
            ~hint:"drive the wire with Signal.assign before building the \
                   circuit"
            ("unassigned wire: " ^ describe s ^ ", first referenced by "
           ^ from)
      | _ -> ());
      (match mem_of s with
      | Some m ->
          if not (Hashtbl.mem mem_seen (mem_uid m)) then begin
            Hashtbl.add mem_seen (mem_uid m) ();
            memories := m :: !memories;
            let from = Printf.sprintf "memory %s write port" (mem_name m) in
            List.iter
              (fun wp ->
                reach ~from wp.wp_enable;
                reach ~from wp.wp_addr;
                reach ~from wp.wp_data)
              (mem_write_ports m)
          end
      | None -> ());
      let from = describe s in
      List.iter (reach ~from) (comb_deps s);
      List.iter (reach ~from) (seq_deps s)
    end
  in
  List.iter (fun (port, s) -> reach ~from:("output " ^ port) s) outputs;
  (* Topological sort of combinational dependencies, detecting cycles.
     [path] holds the grey ancestors, most recent first, so a back-edge
     can report the full cycle. *)
  let color = Hashtbl.create 256 in
  (* 1 = grey, 2 = black *)
  let topo = ref [] in
  let rec visit path s =
    match Hashtbl.find_opt color (uid s) with
    | Some 2 -> ()
    | Some _ ->
        (* dependency-ordered slice of [path] back to [s] *)
        let cycle =
          let rec upto acc = function
            | [] -> acc
            | x :: rest ->
                if uid x = uid s then x :: acc else upto (x :: acc) rest
          in
          upto [] path
        in
        add ~rule:"comb-loop" ~loc:(describe s)
          ~hint:"break the cycle with a register"
          ("combinational loop: "
          ^ String.concat " -> " (List.map describe (cycle @ [ s ])))
    | None ->
        Hashtbl.add color (uid s) 1;
        List.iter (visit (s :: path)) (comb_deps s);
        Hashtbl.replace color (uid s) 2;
        topo := s :: !topo
  in
  List.iter (visit []) !all_nodes;
  match List.rev !diags with
  | _ :: _ as diags -> Error diags
  | [] ->
      let topo = List.rev !topo in
      let inputs_tbl = Hashtbl.create 8 in
      let input_diags = ref [] in
      List.iter
        (fun s ->
          match kind s with
          | Input n -> (
              match Hashtbl.find_opt inputs_tbl n with
              | Some w when w <> width s ->
                  input_diags :=
                    Diag.make ~rule:"input-width-conflict"
                      ~severity:Diag.Error ~loc:(describe s)
                      ("input " ^ n ^ " used at two widths")
                    :: !input_diags
              | Some _ -> ()
              | None -> Hashtbl.add inputs_tbl n (width s))
          | _ -> ())
        !all_nodes;
      if !input_diags <> [] then Error (List.rev !input_diags)
      else
        let inputs =
          Hashtbl.fold (fun n w acc -> (n, w) :: acc) inputs_tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        let registers =
          List.filter
            (fun s -> match kind s with Reg _ -> true | _ -> false)
            !all_nodes
        in
        let sync_reads =
          List.filter
            (fun s -> match kind s with Mem_read_sync _ -> true | _ -> false)
            !all_nodes
        in
        let memories = List.rev !memories in
        Ok { name; outputs; inputs; topo; registers; memories; sync_reads }

let create ~name ~outputs =
  match analyze ~name ~outputs with
  | Ok t -> t
  | Error (first :: rest) ->
      let extra =
        if rest = [] then ""
        else
          "\n"
          ^ String.concat "\n" (List.map (fun d -> d.Diag.message) rest)
      in
      failwith ("Circuit.create: " ^ first.Diag.message ^ extra)
  | Error [] -> assert false

let name t = t.name
let outputs t = t.outputs
let inputs t = t.inputs
let signals_in_topo_order t = t.topo
let registers t = t.registers
let memories t = t.memories
let sync_reads t = t.sync_reads
