module R = Platform.Resources

(* Table II per-component figures, 23-core A3 on the VU9P. *)
let reader_base = R.make ~clb:600 ~lut:2300 ~ff:2600 ()
let writer_base = R.make ~clb:304 ~lut:815 ~ff:1051 ()
(* control logic of a scratchpad (init FSM + ports), excluding both its
   storage cells and its fill Reader *)
let scratchpad_base = R.make ~clb:100 ~lut:300 ~ff:200 ()

(* ~0.6% of the device, per the paper's description of the host frontend. *)
let mmio_frontend = R.make ~clb:900 ~lut:4500 ~ff:5200 ~bram:2 ()

let noc_buffer ~width_bits =
  (* A fanout-4 switching node: ~4 LUT per payload bit for mux + routing,
     lightly registered (Table II shows the interconnect is LUT-heavy and
     register-poor). *)
  let lut = width_bits * 4 in
  R.make ~clb:(lut / 7) ~lut ~ff:(width_bits / 8) ()

let mem_noc_width_bits (p : Platform.Device.t) =
  (p.Platform.Device.axi.Axi.Params.data_bytes * 8) + 64 + 8

let cmd_noc_width_bits = Rocc.width + 16

type kernel_size = { ks_nodes : int; ks_register_bits : int }

(* the nodes in topological order and the total register width *)
let kernel_size c =
  {
    ks_nodes = List.length (Hw.Circuit.signals_in_topo_order c);
    ks_register_bits =
      List.fold_left (fun acc r -> acc + Hw.Signal.width r) 0
        (Hw.Circuit.registers c);
  }

(* rough LUT/FF estimate for a kernel written in the RTL DSL *)
let kernel_estimate { ks_nodes; ks_register_bits } =
  (* ~1.5 LUT per netlist node bit is a crude but serviceable proxy *)
  let lut = ks_nodes * 3 in
  R.make ~clb:(lut / 7) ~lut ~ff:ks_register_bits ()

let core_logic ?kernel_size:size (sys : Config.system) (_p : Platform.Device.t) =
  let kernel =
    match sys.Config.kernel_circuit with
    | Some c when sys.Config.kernel_resources = R.zero ->
        (* estimate on the folded netlist, as the tool flow would see it *)
        kernel_estimate
          (match size with
          | Some s -> s
          | None -> kernel_size (Hw.Opt.constant_fold c))
    | _ -> sys.Config.kernel_resources
  in
  let each base l = R.scale base (List.length l) in
  (* a scratchpad filled from memory carries its own fill Reader *)
  let filled =
    List.filter (fun sp -> sp.Config.sp_init_from_memory) sys.Config.scratchpads
  in
  R.sum
    [ kernel; each reader_base sys.Config.read_channels;
      each writer_base sys.Config.write_channels;
      each scratchpad_base sys.Config.scratchpads; each reader_base filled;
      each writer_base sys.Config.intra_core_ports ]
