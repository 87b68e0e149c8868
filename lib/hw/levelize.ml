open Signal

type node = {
  n_slot : int;
  n_signal : Signal.t;
  n_level : int;
  n_deps : int array;
  n_fanout : int;
}

type t = {
  circuit : Circuit.t;
  nodes : node array;
  slices : (int * int) array;  (* per-level (first slot, count) *)
  slot_by_uid : (int, int) Hashtbl.t;
}

let of_circuit c =
  let topo = Circuit.signals_in_topo_order c in
  let n = List.length topo in
  (* levels: dependencies appear before their consumers in topo order *)
  let level_by_uid = Hashtbl.create n in
  List.iter
    (fun s ->
      let lvl =
        List.fold_left
          (fun acc d -> max acc (1 + Hashtbl.find level_by_uid (uid d)))
          0 (Circuit.comb_deps s)
      in
      Hashtbl.add level_by_uid (uid s) lvl)
    topo;
  (* fanout: one count per reference, combinational and sequential *)
  let fanout_by_uid = Hashtbl.create n in
  let load s =
    Hashtbl.replace fanout_by_uid (uid s)
      (1 + Option.value ~default:0 (Hashtbl.find_opt fanout_by_uid (uid s)))
  in
  List.iter
    (fun s ->
      List.iter load (Circuit.comb_deps s);
      List.iter load (Circuit.seq_deps s))
    topo;
  List.iter
    (fun m ->
      List.iter
        (fun wp ->
          load wp.wp_enable;
          load wp.wp_addr;
          load wp.wp_data)
        (mem_write_ports m))
    (Circuit.memories c);
  (* level-major, uid-minor layout *)
  let ordered =
    List.sort
      (fun a b ->
        let la = Hashtbl.find level_by_uid (uid a)
        and lb = Hashtbl.find level_by_uid (uid b) in
        if la <> lb then compare la lb else compare (uid a) (uid b))
      topo
  in
  let slot_by_uid = Hashtbl.create n in
  List.iteri (fun slot s -> Hashtbl.add slot_by_uid (uid s) slot) ordered;
  let nodes =
    Array.of_list
      (List.mapi
         (fun slot s ->
           {
             n_slot = slot;
             n_signal = s;
             n_level = Hashtbl.find level_by_uid (uid s);
             n_deps =
               Array.of_list
                 (List.map
                    (fun d -> Hashtbl.find slot_by_uid (uid d))
                    (Circuit.comb_deps s));
             n_fanout =
               Option.value ~default:0
                 (Hashtbl.find_opt fanout_by_uid (uid s));
           })
         ordered)
  in
  let n_levels =
    Array.fold_left (fun acc nd -> max acc (nd.n_level + 1)) 1 nodes
  in
  let slices = Array.make n_levels (0, 0) in
  Array.iter
    (fun nd ->
      let first, count = slices.(nd.n_level) in
      if count = 0 then slices.(nd.n_level) <- (nd.n_slot, 1)
      else slices.(nd.n_level) <- (first, count + 1))
    nodes;
  { circuit = c; nodes; slices; slot_by_uid }

let circuit t = t.circuit
let nodes t = t.nodes
let n_nodes t = Array.length t.nodes
let n_levels t = Array.length t.slices
let comb_depth t = n_levels t - 1
let level_slice t lvl = t.slices.(lvl)
let slot_of t s = Hashtbl.find t.slot_by_uid (uid s)
let max_fanout t = Array.fold_left (fun acc nd -> max acc nd.n_fanout) 0 t.nodes

let hotspots t ~n =
  let ranked =
    List.sort
      (fun a b ->
        if a.n_fanout <> b.n_fanout then compare b.n_fanout a.n_fanout
        else compare (uid a.n_signal) (uid b.n_signal))
      (Array.to_list t.nodes)
  in
  List.filteri (fun i _ -> i < n) ranked
