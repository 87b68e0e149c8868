module Diag = Hw.Diag
module R = Platform.Resources
module FM = Platform.Fpga_mem
module D = Platform.Device

let rules =
  [
    ( "drc-name-collision",
      Diag.Error,
      "duplicate system/channel/scratchpad/command names break codegen" );
    ( "drc-core-count",
      Diag.Error,
      "core counts must be in [1, 1024] (RoCC core_id range)" );
    ( "drc-rocc-encoding",
      Diag.Error,
      "system ids, functs and payload beats must fit the RoCC encoding" );
    ( "drc-funct-collision",
      Diag.Error,
      "two commands sharing a funct are indistinguishable to the decoder" );
    ( "drc-dangling-ref",
      Diag.Error,
      "intra-core ports must name existing systems and scratchpads" );
    ( "drc-axi-capacity",
      Diag.Warning,
      "more memory channels than AXI IDs serializes transactions" );
    ( "drc-scratchpad-capacity",
      Diag.Error,
      "scratchpad requests must fit the platform's memory cells" );
    ( "drc-floorplan",
      Diag.Error,
      "every core must fit on some SLR after the shell and reserves" );
    ( "drc-sta-slr-path",
      Diag.Error,
      "estimated worst logic path plus the SLR-crossing tax must fit the \
       depth budget (warning on-die, error across dies)" );
  ]

let err ?loc ?hint rule msg =
  Diag.make ?loc ?hint ~rule ~severity:Diag.Error msg

let warn ?loc ?hint rule msg =
  Diag.make ?loc ?hint ~rule ~severity:Diag.Warning msg

let dup_names ~rule ~what ~loc names =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun n ->
      if Hashtbl.mem seen n then Some (err ~loc rule (Printf.sprintf "duplicate %s %S" what n))
      else begin
        Hashtbl.add seen n ();
        None
      end)
    names

(* RoCC limits (Rocc.encode): 8-bit system_id, 10-bit core_id, 7-bit funct *)
let max_systems = 256
let max_cores_per_system = 1024
let max_funct = 127
let max_cmd_beats = 8

let structure (config : Config.t) =
  let systems = config.Config.systems in
  let acc = config.Config.acc_name in
  let sys_dups =
    dup_names ~rule:"drc-name-collision" ~what:"system" ~loc:acc
      (List.map (fun s -> s.Config.sys_name) systems)
  in
  let too_many =
    if List.length systems > max_systems then
      [
        err ~loc:acc "drc-rocc-encoding"
          (Printf.sprintf
             "%d systems exceed the RoCC system_id space (%d)"
             (List.length systems) max_systems);
      ]
    else []
  in
  let per_system =
    List.concat_map
      (fun (sys : Config.system) ->
        let loc = acc ^ "." ^ sys.Config.sys_name in
        let cores =
          if sys.Config.n_cores < 1 then
            [ err ~loc "drc-core-count" "system declares no cores" ]
          else if sys.Config.n_cores > max_cores_per_system then
            [
              err ~loc "drc-core-count"
                (Printf.sprintf
                   "%d cores exceed the RoCC core_id space (%d)"
                   sys.Config.n_cores max_cores_per_system);
            ]
          else []
        in
        let name_dups =
          dup_names ~rule:"drc-name-collision" ~what:"memory channel" ~loc
            (List.map (fun rc -> rc.Config.rc_name) sys.Config.read_channels
            @ List.map (fun wc -> wc.Config.wc_name) sys.Config.write_channels
            )
          @ dup_names ~rule:"drc-name-collision" ~what:"scratchpad" ~loc
              (List.map (fun sp -> sp.Config.sp_name) sys.Config.scratchpads)
          @ dup_names ~rule:"drc-name-collision" ~what:"command" ~loc
              (List.map
                 (fun c -> c.Cmd_spec.cmd_name)
                 sys.Config.commands)
        in
        let functs =
          let seen = Hashtbl.create 8 in
          List.concat_map
            (fun (c : Cmd_spec.command) ->
              let range =
                if c.Cmd_spec.cmd_funct < 0 || c.Cmd_spec.cmd_funct > max_funct
                then
                  [
                    err ~loc "drc-rocc-encoding"
                      (Printf.sprintf "command %S funct %d outside [0, %d]"
                         c.Cmd_spec.cmd_name c.Cmd_spec.cmd_funct max_funct);
                  ]
                else []
              in
              let beats =
                if Cmd_spec.rocc_beats c > max_cmd_beats then
                  [
                    err ~loc "drc-rocc-encoding"
                      (Printf.sprintf
                         "command %S needs %d RoCC beats (limit %d)"
                         c.Cmd_spec.cmd_name (Cmd_spec.rocc_beats c)
                         max_cmd_beats);
                  ]
                else []
              in
              let collide =
                match Hashtbl.find_opt seen c.Cmd_spec.cmd_funct with
                | Some other ->
                    [
                      err ~loc
                        ~hint:"give each command of a system a distinct funct"
                        "drc-funct-collision"
                        (Printf.sprintf
                           "commands %S and %S share funct %d" other
                           c.Cmd_spec.cmd_name c.Cmd_spec.cmd_funct);
                    ]
                | None ->
                    Hashtbl.add seen c.Cmd_spec.cmd_funct c.Cmd_spec.cmd_name;
                    []
              in
              range @ beats @ collide)
            sys.Config.commands
        in
        let refs =
          List.concat_map
            (fun (ic : Config.intra_core_port) ->
              match
                List.find_opt
                  (fun s -> s.Config.sys_name = ic.Config.ic_to_system)
                  systems
              with
              | None ->
                  [
                    err ~loc "drc-dangling-ref"
                      (Printf.sprintf
                         "intra-core port %S targets unknown system %S"
                         ic.Config.ic_name ic.Config.ic_to_system);
                  ]
              | Some target ->
                  if
                    List.exists
                      (fun sp ->
                        sp.Config.sp_name = ic.Config.ic_to_scratchpad)
                      target.Config.scratchpads
                  then []
                  else
                    [
                      err ~loc "drc-dangling-ref"
                        (Printf.sprintf
                           "intra-core port %S targets unknown scratchpad \
                            %S of system %S"
                           ic.Config.ic_name ic.Config.ic_to_scratchpad
                           ic.Config.ic_to_system);
                    ])
            sys.Config.intra_core_ports
        in
        cores @ name_dups @ functs @ refs)
      systems
  in
  sys_dups @ too_many @ per_system

(* memory channel instances a system contributes per core *)
let mem_channels_per_core (sys : Config.system) =
  List.length sys.Config.read_channels
  + List.length sys.Config.write_channels
  + List.length
      (List.filter (fun sp -> sp.Config.sp_init_from_memory)
         sys.Config.scratchpads)

let axi_capacity (config : Config.t) (p : D.t) =
  let n_ids = p.D.axi.Axi.Params.n_ids in
  let instances =
    List.fold_left
      (fun acc sys -> acc + (sys.Config.n_cores * mem_channels_per_core sys))
      0 config.Config.systems
  in
  let shared =
    if instances > n_ids then
      [
        warn ~loc:config.Config.acc_name
          ~hint:"reduce channel counts/cores, or accept per-ID \
                 serialization at the memory controller"
          "drc-axi-capacity"
          (Printf.sprintf
             "%d memory channel instances share %d AXI IDs on %s"
             instances n_ids p.D.name);
      ]
    else []
  in
  let tlp_depth =
    List.concat_map
      (fun sys ->
        let loc = config.Config.acc_name ^ "." ^ sys.Config.sys_name in
        List.filter_map
          (fun rc ->
            if rc.Config.rc_use_tlp && rc.Config.rc_max_in_flight > n_ids
            then
              Some
                (warn ~loc "drc-axi-capacity"
                   (Printf.sprintf
                      "reader %S wants %d transactions in flight but the \
                       platform has %d AXI IDs"
                      rc.Config.rc_name rc.Config.rc_max_in_flight n_ids))
            else None)
          sys.Config.read_channels
        @ List.filter_map
            (fun wc ->
              if wc.Config.wc_use_tlp && wc.Config.wc_max_in_flight > n_ids
              then
                Some
                  (warn ~loc "drc-axi-capacity"
                     (Printf.sprintf
                        "writer %S wants %d transactions in flight but the \
                         platform has %d AXI IDs"
                        wc.Config.wc_name wc.Config.wc_max_in_flight n_ids))
              else None)
            sys.Config.write_channels)
      config.Config.systems
  in
  shared @ tlp_depth

let scratchpad_capacity (config : Config.t) (p : D.t) =
  match p.D.sram_library with
  | Some library ->
      (* ASIC: every request must compile to macros *)
      List.concat_map
        (fun sys ->
          List.filter_map
            (fun sp ->
              let loc =
                Printf.sprintf "%s.%s" sys.Config.sys_name sp.Config.sp_name
              in
              match
                Platform.Sram.compile ~library
                  ~width_bits:sp.Config.sp_data_bits
                  ~depth:sp.Config.sp_n_datas
              with
              | (_ : Platform.Sram.plan) -> None
              | exception (Invalid_argument m | Failure m) ->
                  Some
                    (err ~loc "drc-scratchpad-capacity"
                       ("SRAM compiler cannot realize the request: " ^ m)))
            sys.Config.scratchpads)
        config.Config.systems
  | None ->
      let cap = D.total_capacity p in
      if cap.R.bram = max_int || cap.R.uram = max_int then []
      else begin
        let bram_demand = ref 0 and uram_demand = ref 0 and bits = ref 0 in
        List.iter
          (fun sys ->
            List.iter
              (fun sp ->
                let choice =
                  FM.preferred ~width_bits:sp.Config.sp_data_bits
                    ~depth:sp.Config.sp_n_datas
                in
                (match choice.FM.cell with
                | FM.Bram ->
                    bram_demand :=
                      !bram_demand + (choice.FM.count * sys.Config.n_cores)
                | FM.Uram ->
                    uram_demand :=
                      !uram_demand + (choice.FM.count * sys.Config.n_cores)
                | FM.Lutram -> ());
                bits :=
                  !bits
                  + sp.Config.sp_data_bits * sp.Config.sp_n_datas
                    * sys.Config.n_cores)
              sys.Config.scratchpads)
          config.Config.systems;
        let capacity_bits =
          (cap.R.bram * FM.bram_bits) + (cap.R.uram * FM.uram_bits)
        in
        if !bits > capacity_bits then
          [
            err ~loc:config.Config.acc_name
              ~hint:"shrink the scratchpads or reduce the core count"
              "drc-scratchpad-capacity"
              (Printf.sprintf
                 "scratchpads request %d bits of storage but %s has only \
                  %d bits of BRAM+URAM"
                 !bits p.D.name capacity_bits);
          ]
        else if !bram_demand > cap.R.bram || !uram_demand > cap.R.uram then
          [
            warn ~loc:config.Config.acc_name "drc-scratchpad-capacity"
              (Printf.sprintf
                 "preferred cell mapping needs %d BRAM (of %d) and %d URAM \
                  (of %d); the floorplanner will have to spill"
                 !bram_demand cap.R.bram !uram_demand cap.R.uram);
          ]
        else []
      end

(* ---- static timing over RTL-DSL kernels ---- *)

(* Worst-path budget in Sta "levels of logic". Calibrated against the
   bundled kernels: the deepest (the 64-lane reduction in a3-rtl) sits
   well under it even after the cross-SLR tax on aws_f1, while an
   unpipelined long chain (hundreds of chained adds) blows through it. *)
let default_sta_budget = 256

(* The placement-independent per-system analysis: the lint pass, the
   STA report and the folded size of one kernel circuit. This is the
   unit {!Elaborate.Cache} memoizes under the system's name and kernel
   circuit, so it must read nothing else. *)
type kernel_analysis = {
  ka_lint : Diag.t list;
  ka_sta : Hw.Sta.report option;
  ka_size : Resource_model.kernel_size option;
}

let analyze_kernel (sys : Config.system) =
  match sys.Config.kernel_circuit with
  | None -> { ka_lint = []; ka_sta = None; ka_size = None }
  | Some c ->
      (* one levelization serves lint's dataflow pass and the STA, one
         fold serves lint and the placement's logic estimate *)
      let lv = Hw.Levelize.of_circuit c in
      let folded = Hw.Opt.constant_fold c in
      let lint =
        List.map
          (fun (d : Diag.t) ->
            let loc =
              match d.Diag.loc with
              | Some l -> sys.Config.sys_name ^ ": " ^ l
              | None ->
                  sys.Config.sys_name ^ ": circuit " ^ Hw.Circuit.name c
            in
            { d with Diag.loc = Some loc })
          (Hw.Lint.circuit ~lutram_max_bits:FM.lutram_max_bits ~folded lv)
      in
      {
        ka_lint = lint;
        ka_sta = Some (Hw.Sta.analyze lv);
        ka_size = Some (Resource_model.kernel_size folded);
      }

let analyses_of ?analyses (config : Config.t) =
  List.map
    (fun (sys : Config.system) ->
      let name = sys.Config.sys_name in
      match Option.bind analyses (List.assoc_opt name) with
      | Some a -> (name, a)
      | None -> (name, analyze_kernel sys))
    config.Config.systems

let sta ?analyses (config : Config.t) =
  let analyses = analyses_of ?analyses config in
  List.filter_map
    (fun (name, a) -> Option.map (fun r -> (name, r)) a.ka_sta)
    analyses

let sta_paths ~analyses (config : Config.t) (p : D.t) fp =
  let tax = p.D.noc.Noc.Params.slr_crossing_latency_cycles in
  List.concat_map
    (fun (sys : Config.system) ->
      match
        Option.bind
          (List.assoc_opt sys.Config.sys_name analyses)
          (fun a -> a.ka_sta)
      with
      | None -> []
      | Some r ->
          (* the frontend (command/memory roots) lives with the shell on
             SLR 0; a core placed n dies away pays the crossing penalty on
             every path to it *)
          let crossings =
            let worst = ref 0 in
            for core = 0 to sys.Config.n_cores - 1 do
              worst :=
                max !worst
                  (abs (Floorplan.slr_of fp ~system:sys.Config.sys_name ~core))
            done;
            !worst
          in
          let taxed = r.Hw.Sta.r_max_delay + (tax * crossings) in
          if taxed <= default_sta_budget then []
          else
            let loc = config.Config.acc_name ^ "." ^ sys.Config.sys_name in
            let msg =
              Printf.sprintf
                "worst path of kernel %S is %d (delay %d + %d SLR \
                 crossing(s) x %d), over the budget of %d"
                r.Hw.Sta.r_circuit taxed r.Hw.Sta.r_max_delay crossings tax
                default_sta_budget
            in
            let hint =
              "pipeline the kernel (cut the worst path with registers) or \
               keep its cores on the shell SLR"
            in
            if crossings > 0 then [ err ~loc ~hint "drc-sta-slr-path" msg ]
            else [ warn ~loc ~hint "drc-sta-slr-path" msg ])
    config.Config.systems

let run ?analyses (config : Config.t) (p : D.t) =
  let analyses = analyses_of ?analyses config in
  let structural = structure config in
  let mapping, floorplan =
    (* capacity / placement checks assume a structurally sound config *)
    if Diag.has_errors structural then ([], None)
    else
      let capacity = axi_capacity config p @ scratchpad_capacity config p in
      (* the one placement: drc-floorplan when it fails, the timing tax
         and the elaborated floorplan when it succeeds *)
      let kernel_sizes =
        List.filter_map
          (fun (name, a) -> Option.map (fun s -> (name, s)) a.ka_size)
          analyses
      in
      match Floorplan.place ~kernel_sizes config p with
      | fp ->
          (capacity @ sta_paths ~analyses config p fp,
           Some fp)
      | exception (Failure m | Invalid_argument m) ->
          ( capacity
            @ [
                err ~loc:config.Config.acc_name
                  ~hint:"reduce cores/memories, raise the spill threshold, \
                         or pick a larger platform"
                  "drc-floorplan" m;
              ],
            None )
  in
  let lint = List.concat_map (fun (_, a) -> a.ka_lint) analyses in
  (structural @ mapping @ lint, floorplan)
