open Signal

type model = Unit | Typical

let model_name = function Unit -> "unit" | Typical -> "typical"

let delay_of model s =
  match model with
  | Unit -> (
      match kind s with
      | Const _ | Input _ | Reg _ | Mem_read_sync _ -> 0
      | _ -> 1)
  | Typical -> (
      match kind s with
      | Const _ | Input _ | Reg _ | Mem_read_sync _ -> 0
      | Wire _ | Select _ | Concat _ | Shift _ -> 0
      | Not _ | Mux _ -> 1
      | Op2 ((And | Or | Xor), _, _) -> 1
      | Op2 ((Add | Sub | Eq | Lt), _, _) -> 2
      | Op2 (Mul, _, _) -> 4
      | Mem_read_async _ -> 2)

type path_node = { pn_signal : Signal.t; pn_delay : int; pn_arrival : int }

type report = {
  r_circuit : string;
  r_model : model;
  r_nodes : int;
  r_comb_depth : int;
  r_max_delay : int;
  r_worst_path : path_node list;
  r_outputs : (string * int * int) list;
  r_hotspots : (Levelize.node * int) list;
}

(* rows of the fanout hotspot table *)
let hotspots = 5

let analyze ?(model = Typical) lv =
  let nodes = Levelize.nodes lv in
  let n = Array.length nodes in
  let arrival = Array.make n 0 in
  Array.iter
    (fun nd ->
      let from_deps =
        Array.fold_left
          (fun acc dep -> max acc arrival.(dep))
          0 nd.Levelize.n_deps
      in
      arrival.(nd.Levelize.n_slot) <-
        delay_of model nd.Levelize.n_signal + from_deps)
    nodes;
  (* worst endpoint, ties broken by lowest slot for determinism *)
  let worst_slot = ref 0 in
  for i = 1 to n - 1 do
    if arrival.(i) > arrival.(!worst_slot) then worst_slot := i
  done;
  let rec walk_back slot acc =
    let nd = nodes.(slot) in
    let acc =
      {
        pn_signal = nd.Levelize.n_signal;
        pn_delay = delay_of model nd.Levelize.n_signal;
        pn_arrival = arrival.(slot);
      }
      :: acc
    in
    if Array.length nd.Levelize.n_deps = 0 then acc
    else begin
      (* follow the latest-arriving dependency; lowest slot on ties *)
      let best = ref nd.Levelize.n_deps.(0) in
      Array.iter
        (fun dep -> if arrival.(dep) > arrival.(!best) then best := dep)
        nd.Levelize.n_deps;
      walk_back !best acc
    end
  in
  let c = Levelize.circuit lv in
  {
    r_circuit = Circuit.name c;
    r_model = model;
    r_nodes = n;
    r_comb_depth = Levelize.comb_depth lv;
    r_max_delay = (if n = 0 then 0 else arrival.(!worst_slot));
    r_worst_path = (if n = 0 then [] else walk_back !worst_slot []);
    r_outputs =
      List.map
        (fun (name, s) ->
          let slot = Levelize.slot_of lv s in
          (name, nodes.(slot).Levelize.n_level, arrival.(slot)))
        (Circuit.outputs c);
    r_hotspots =
      List.map
        (fun nd -> (nd, nd.Levelize.n_fanout))
        (Levelize.hotspots lv ~n:hotspots);
  }

let of_circuit ?model c = analyze ?model (Levelize.of_circuit c)

let render r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "sta %s: model=%s nodes=%d comb_depth=%d max_delay=%d\n" r.r_circuit
    (model_name r.r_model) r.r_nodes r.r_comb_depth r.r_max_delay;
  add "  worst path (%d node(s)):\n" (List.length r.r_worst_path);
  List.iter
    (fun pn ->
      add "    %-10s +%d =%3d  %s\n"
        (Circuit.kind_name pn.pn_signal)
        pn.pn_delay pn.pn_arrival
        (Circuit.describe pn.pn_signal))
    r.r_worst_path;
  add "  outputs:\n";
  List.iter
    (fun (name, depth, delay) ->
      add "    %-24s depth=%3d delay=%3d\n" name depth delay)
    r.r_outputs;
  add "  fanout hotspots:\n";
  List.iter
    (fun (nd, fo) ->
      add "    %4d  %s\n" fo (Circuit.describe nd.Levelize.n_signal))
    r.r_hotspots;
  Buffer.contents buf

(* minimal JSON string escaping; signal descriptions are ASCII *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_json r =
  let path =
    String.concat ","
      (List.map
         (fun pn ->
           Printf.sprintf "{\"signal\":%s,\"kind\":%s,\"delay\":%d,\"arrival\":%d}"
             (json_string (Circuit.describe pn.pn_signal))
             (json_string (Circuit.kind_name pn.pn_signal))
             pn.pn_delay pn.pn_arrival)
         r.r_worst_path)
  in
  let outputs =
    String.concat ","
      (List.map
         (fun (name, depth, delay) ->
           Printf.sprintf "{\"name\":%s,\"depth\":%d,\"delay\":%d}"
             (json_string name) depth delay)
         r.r_outputs)
  in
  let hotspots =
    String.concat ","
      (List.map
         (fun (nd, fo) ->
           Printf.sprintf "{\"signal\":%s,\"fanout\":%d}"
             (json_string (Circuit.describe nd.Levelize.n_signal))
             fo)
         r.r_hotspots)
  in
  Printf.sprintf
    "{\"circuit\":%s,\"model\":%s,\"nodes\":%d,\"comb_depth\":%d,\"max_delay\":%d,\"worst_path\":[%s],\"outputs\":[%s],\"hotspots\":[%s]}"
    (json_string r.r_circuit)
    (json_string (model_name r.r_model))
    r.r_nodes r.r_comb_depth r.r_max_delay path outputs hotspots
