module R = Platform.Resources

type t = {
  config : Config.t;
  platform : Platform.Device.t;
  diagnostics : Hw.Diag.t list;
  floorplan : Floorplan.t;
  cmd_noc : Noc.t;
  mem_noc : Noc.t;
  mem_endpoints : ((string * int * string) * int) list;
  interconnect : R.t;
  frontend : R.t;
  beethoven_total : R.t;
  grand_total : R.t;
  sram_plans : (string * Platform.Sram.plan) list;
  sta : (string * Hw.Sta.report) list;
}

(* Flattened (system, core) list in config order. *)
let all_cores (config : Config.t) =
  List.concat_map
    (fun sys ->
      List.init sys.Config.n_cores (fun core -> (sys, core)))
    config.Config.systems

let channel_instance name = name ^ "[0]"

(* Memory channel instances of one core, by instance name. *)
let mem_channels (sys : Config.system) =
  List.map (fun rc -> channel_instance rc.Config.rc_name)
    sys.Config.read_channels
  @ List.map (fun wc -> channel_instance wc.Config.wc_name)
      sys.Config.write_channels
  @ List.filter_map
      (fun sp ->
        if sp.Config.sp_init_from_memory then
          Some (Printf.sprintf "%s[init]" sp.Config.sp_name)
        else None)
      sys.Config.scratchpads

let cmd_ep_id config ~system ~core =
  let rec go idx = function
    | [] -> invalid_arg "Elaborate: unknown system"
    | sys :: rest ->
        if sys.Config.sys_name = system then begin
          if core < 0 || core >= sys.Config.n_cores then
            invalid_arg "Elaborate: core index out of range";
          idx + core
        end
        else go (idx + sys.Config.n_cores) rest
  in
  go 0 config.Config.systems

(* The elaboration body, parameterized over the per-system kernel
   analyses so {!Cache.elaborate} can substitute memoized ones. With
   matching analyses the result is identical to a fresh run — the
   cache-equivalence property test/test_tune.ml pins. *)
let elaborate_with ~analyses (config : Config.t)
    (platform : Platform.Device.t) =
  let diagnostics, placed = Check.run ~analyses config platform in
  Hw.Diag.raise_if_errors ~what:"design-rule check" diagnostics;
  (* a config Check.run could not place carries an error diagnostic *)
  let floorplan = Option.get placed in
  let cores = all_cores config in
  (* command NoC: one endpoint per core *)
  let cmd_endpoints =
    List.map
      (fun (sys, core) ->
        {
          Noc.ep_id = cmd_ep_id config ~system:sys.Config.sys_name ~core;
          ep_slr =
            Floorplan.slr_of floorplan ~system:sys.Config.sys_name ~core;
        })
      cores
  in
  let cmd_noc =
    Noc.build platform.Platform.Device.noc ~root_slr:0 ~endpoints:cmd_endpoints
  in
  (* memory NoC: one endpoint per memory channel instance *)
  let mem_endpoints_assoc = ref [] in
  let next_ep = ref 0 in
  let mem_endpoints =
    List.concat_map
      (fun (sys, core) ->
        let slr =
          Floorplan.slr_of floorplan ~system:sys.Config.sys_name ~core
        in
        List.map
          (fun chan ->
            let ep = !next_ep in
            incr next_ep;
            mem_endpoints_assoc :=
              ((sys.Config.sys_name, core, chan), ep) :: !mem_endpoints_assoc;
            { Noc.ep_id = ep; ep_slr = slr })
          (mem_channels sys))
      cores
  in
  let mem_noc =
    Noc.build platform.Platform.Device.noc ~root_slr:0 ~endpoints:mem_endpoints
  in
  let interconnect =
    R.add
      (R.scale
         (Resource_model.noc_buffer
            ~width_bits:(Resource_model.mem_noc_width_bits platform))
         (Noc.n_buffers mem_noc))
      (R.scale
         (Resource_model.noc_buffer
            ~width_bits:Resource_model.cmd_noc_width_bits)
         (Noc.n_buffers cmd_noc))
  in
  let frontend = Resource_model.mmio_frontend in
  let cores_total =
    R.sum (List.map (fun cp -> cp.Floorplan.cp_total) floorplan.Floorplan.places)
  in
  let beethoven_total = R.sum [ cores_total; interconnect; frontend ] in
  let grand_total =
    R.add beethoven_total (Platform.Device.total_shell platform)
  in
  (* ASIC targets: compile every scratchpad request to SRAM macros *)
  let sram_plans =
    match platform.Platform.Device.sram_library with
    | None -> []
    | Some library ->
        List.concat_map
          (fun sys ->
            List.map
              (fun sp ->
                ( Printf.sprintf "%s.%s" sys.Config.sys_name sp.Config.sp_name,
                  Platform.Sram.compile ~library
                    ~width_bits:sp.Config.sp_data_bits
                    ~depth:sp.Config.sp_n_datas ))
              sys.Config.scratchpads)
          config.Config.systems
  in
  {
    config;
    platform;
    diagnostics;
    floorplan;
    cmd_noc;
    mem_noc;
    mem_endpoints = List.rev !mem_endpoints_assoc;
    interconnect;
    frontend;
    beethoven_total;
    grand_total;
    sram_plans;
    sta = Check.sta ~analyses config;
  }

let elaborate (config : Config.t) (platform : Platform.Device.t) =
  elaborate_with ~analyses:(Check.analyses_of config) config platform

(* ------------------------------------------------------------------ *)
(* Elaboration cache                                                  *)
(* ------------------------------------------------------------------ *)

(* {!Check.analyze_kernel} reads a system's name and its kernel circuit
   and nothing else, so those two are the key. Circuits are immutable
   and compared physically: configs derived from one config value share
   its circuits, and a freshly built circuit is a new key even when it
   is structurally equal. *)
module Cache = struct
  type cache = {
    mutable c_entries :
      (string * Hw.Circuit.t option * Check.kernel_analysis) list;
    mutable c_hits : int;
    mutable c_misses : int;
    mutable c_last : (string * bool) list;  (* most recent lookup first *)
  }

  let create () = { c_entries = []; c_hits = 0; c_misses = 0; c_last = [] }

  let lookup t (sys : Config.system) =
    let name = sys.Config.sys_name and circuit = sys.Config.kernel_circuit in
    let cached =
      List.find_map
        (fun (n, c, a) ->
          if n = name && Option.equal ( == ) c circuit then Some a else None)
        t.c_entries
    in
    t.c_last <- (name, Option.is_some cached) :: t.c_last;
    match cached with
    | Some a ->
        t.c_hits <- t.c_hits + 1;
        a
    | None ->
        let a = Check.analyze_kernel sys in
        t.c_entries <- (name, circuit, a) :: t.c_entries;
        t.c_misses <- t.c_misses + 1;
        a

  let elaborate t (config : Config.t) (platform : Platform.Device.t) =
    t.c_last <- [];
    let analyses =
      List.map
        (fun (sys : Config.system) -> (sys.Config.sys_name, lookup t sys))
        config.Config.systems
    in
    elaborate_with ~analyses config platform

  let hits t = t.c_hits
  let misses t = t.c_misses
  let entries t = List.length t.c_entries
  let last_lookups t = List.rev t.c_last
end

let cmd_endpoint t ~system ~core = cmd_ep_id t.config ~system ~core

let mem_endpoint t ~system ~core ~channel =
  match List.assoc_opt (system, core, channel) t.mem_endpoints with
  | Some ep -> ep
  | None ->
      invalid_arg
        (Printf.sprintf "Elaborate.mem_endpoint: no channel %s on %s[%d]"
           channel system core)

let resource_table t =
  let cap = Platform.Device.total_capacity t.platform in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let row name (r : R.t) =
    let pct used total =
      if total = 0 || total = max_int then "-"
      else Printf.sprintf "%.1f%%" (100. *. float_of_int used /. float_of_int total)
    in
    pr "%-22s %8s %8s %8s %6s %6s | %6s %6s\n" name
      (List.nth (R.to_row r) 0) (List.nth (R.to_row r) 1)
      (List.nth (R.to_row r) 2) (List.nth (R.to_row r) 3)
      (List.nth (R.to_row r) 4)
      (pct r.R.clb cap.R.clb)
      (pct r.R.lut cap.R.lut)
  in
  pr "%-22s %8s %8s %8s %6s %6s | %6s %6s\n" "" "CLB" "LUT" "FF" "BRAM"
    "URAM" "CLB%" "LUT%";
  row "Total (w/ shell)" t.grand_total;
  row "Beethoven" t.beethoven_total;
  row "Interconnect" t.interconnect;
  row "MMIO frontend" t.frontend;
  (match t.floorplan.Floorplan.places with
  | [] -> ()
  | first :: _ ->
      row
        (Printf.sprintf "Core (1 of %d)" (List.length t.floorplan.Floorplan.places))
        first.Floorplan.cp_total;
      List.iter
        (fun mm ->
          let cells =
            match mm.Floorplan.mm_choice.Platform.Fpga_mem.cell with
            | Platform.Fpga_mem.Bram ->
                R.make ~bram:mm.Floorplan.mm_choice.Platform.Fpga_mem.count ()
            | Platform.Fpga_mem.Uram ->
                R.make ~uram:mm.Floorplan.mm_choice.Platform.Fpga_mem.count ()
            | Platform.Fpga_mem.Lutram -> R.make ~lut:64 ()
          in
          row ("  mem: " ^ mm.Floorplan.mm_name) cells)
        first.Floorplan.cp_memories);
  Buffer.contents buf

let cpp_header t = Codegen.header t.config
let cpp_stubs t = Codegen.stubs t.config
let constraints t = Floorplan.constraints t.floorplan

let verilog t =
  List.filter_map
    (fun sys ->
      match sys.Config.kernel_circuit with
      | Some c ->
          (* hand the tool flow the optimized netlist *)
          Some
            (sys.Config.sys_name,
             Hw.Verilog.of_circuit (Hw.Opt.constant_fold c))
      | None -> None)
    t.config.Config.systems

let summary t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "Accelerator %S on %s\n" t.config.Config.acc_name
    t.platform.Platform.Device.name;
  pr "  %d system(s), %d core(s) total\n"
    (List.length t.config.Config.systems)
    (Config.total_cores t.config);
  pr "  command NoC: %s\n"
    (String.concat " / " (String.split_on_char '\n' (Noc.describe t.cmd_noc)));
  pr "  memory NoC:  %s\n"
    (String.concat " / " (String.split_on_char '\n' (Noc.describe t.mem_noc)));
  pr "%s" (Floorplan.render t.floorplan);
  List.iter
    (fun (name, plan) ->
      pr "  SRAM %s: %s\n" name (Platform.Sram.describe plan))
    t.sram_plans;
  List.iter
    (fun (sys, r) ->
      pr "  kernel %s: %d node(s), comb depth %d, max delay %d (%s model)\n"
        sys r.Hw.Sta.r_nodes r.Hw.Sta.r_comb_depth r.Hw.Sta.r_max_delay
        (Hw.Sta.model_name r.Hw.Sta.r_model))
    t.sta;
  Buffer.contents buf
