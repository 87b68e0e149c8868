module R = Platform.Resources
module FM = Platform.Fpga_mem

type memory_map = { mm_name : string; mm_choice : FM.choice }

type core_place = {
  cp_system : string;
  cp_core : int;
  cp_slr : int;
  cp_memories : memory_map list;
  cp_total : R.t;
}

type t = {
  places : core_place list;
  used_per_slr : R.t array;
  platform : Platform.Device.t;
}

(* The memory requests (name, width, depth) a single core of this system
   makes: explicit scratchpads plus reader/writer prefetch buffers. *)
let memory_requests (sys : Config.system) (p : Platform.Device.t) =
  let spads =
    List.map
      (fun sp ->
        (sp.Config.sp_name, sp.Config.sp_data_bits, sp.Config.sp_n_datas))
      sys.Config.scratchpads
  in
  let beat_bits = p.Platform.Device.axi.Axi.Params.data_bytes * 8 in
  let readers =
    List.map
      (fun rc ->
        (rc.Config.rc_name ^ ".buf0", beat_bits, rc.Config.rc_buffer_beats))
      sys.Config.read_channels
  in
  let writers =
    List.map
      (fun wc ->
        (wc.Config.wc_name ^ ".buf0", beat_bits, wc.Config.wc_buffer_beats))
      sys.Config.write_channels
  in
  spads @ readers @ writers

let cells_resource (choice : FM.choice) =
  match choice.FM.cell with
  | FM.Bram -> R.make ~bram:choice.FM.count ()
  | FM.Uram -> R.make ~uram:choice.FM.count ()
  | FM.Lutram -> R.make ~lut:64 ()

(* Fraction of each SLR's logic held back for the interconnect and MMIO
   frontend, which are generated after placement and must still fit. *)
let interconnect_reserve = 0.08

let place ?(kernel_sizes = []) (config : Config.t) (p : Platform.Device.t) =
  let slrs = Array.of_list p.Platform.Device.slrs in
  let used =
    Array.map (fun s -> s.Platform.Device.shell) slrs
  in
  let reserve n =
    if n = max_int then n
    else n - int_of_float (float_of_int n *. interconnect_reserve)
  in
  let caps =
    Array.map
      (fun (s : Platform.Device.slr) ->
        let c = s.Platform.Device.capacity in
        { c with R.clb = reserve c.R.clb; lut = reserve c.R.lut;
                 ff = reserve c.R.ff })
      slrs
  in
  let places = ref [] in
  List.iter
    (fun sys ->
      let logic =
        Resource_model.core_logic
          ?kernel_size:(List.assoc_opt sys.Config.sys_name kernel_sizes)
          sys p
      in
      let requests = memory_requests sys p in
      for core = 0 to sys.Config.n_cores - 1 do
        (* trial-map the memories against each SLR, pick the SLR with the
           lowest resulting peak utilization *)
        let candidate slr_i =
          let u = used.(slr_i) in
          let cap = caps.(slr_i) in
          let bram_used = ref u.R.bram and uram_used = ref u.R.uram in
          let memories =
            List.map
              (fun (name, width_bits, depth) ->
                let choice =
                  FM.choose ~width_bits ~depth ~bram_used:!bram_used
                    ~bram_avail:cap.R.bram ~uram_used:!uram_used
                    ~uram_avail:cap.R.uram
                    ~spill_threshold:p.Platform.Device.memory_spill_threshold
                    ()
                in
                (match choice.FM.cell with
                | FM.Bram -> bram_used := !bram_used + choice.FM.count
                | FM.Uram -> uram_used := !uram_used + choice.FM.count
                | FM.Lutram -> ());
                { mm_name = name; mm_choice = choice })
              requests
          in
          let mem_cells =
            R.sum (List.map (fun m -> cells_resource m.mm_choice) memories)
          in
          let total = R.add logic mem_cells in
          let after = R.add u total in
          if R.fits after ~cap then
            Some (R.max_utilization after ~cap, memories, total)
          else None
        in
        let best = ref None in
        Array.iteri
          (fun slr_i _ ->
            match candidate slr_i with
            | None -> ()
            | Some (util, memories, total) -> (
                match !best with
                | Some (u, _, _, _) when u <= util -> ()
                | _ -> best := Some (util, slr_i, memories, total)))
          slrs;
        match !best with
        | None ->
            failwith
              (Printf.sprintf
                 "Floorplan.place: core %d of system %s does not fit on any \
                  SLR of %s"
                 core sys.Config.sys_name p.Platform.Device.name)
        | Some (_, slr_i, memories, total) ->
            used.(slr_i) <- R.add used.(slr_i) total;
            places :=
              {
                cp_system = sys.Config.sys_name;
                cp_core = core;
                cp_slr = slr_i;
                cp_memories = memories;
                cp_total = total;
              }
              :: !places
      done)
    config.Config.systems;
  { places = List.rev !places; used_per_slr = used; platform = p }

let slr_of t ~system ~core =
  match
    List.find_opt
      (fun cp -> cp.cp_system = system && cp.cp_core = core)
      t.places
  with
  | Some cp -> cp.cp_slr
  | None -> invalid_arg "Floorplan.slr_of: unknown core"

let cores_on_slr t slr = List.filter (fun cp -> cp.cp_slr = slr) t.places

let constraints t =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun slr_i _ ->
      Buffer.add_string buf
        (Printf.sprintf "create_pblock pblock_slr%d\n" slr_i);
      Buffer.add_string buf
        (Printf.sprintf
           "resize_pblock pblock_slr%d -add {SLR%d}\n" slr_i slr_i);
      List.iter
        (fun cp ->
          Buffer.add_string buf
            (Printf.sprintf
               "add_cells_to_pblock pblock_slr%d [get_cells {beethoven/%s_%d}]\n"
               slr_i cp.cp_system cp.cp_core))
        (cores_on_slr t slr_i))
    t.used_per_slr;
  Buffer.contents buf

let render t =
  let buf = Buffer.create 512 in
  Array.iteri
    (fun slr_i used ->
      let cap = (Platform.Device.slr_exn t.platform slr_i).Platform.Device.capacity in
      let cores = cores_on_slr t slr_i in
      Buffer.add_string buf
        (Printf.sprintf "SLR %d  (%d cores, peak util %.0f%%)\n" slr_i
           (List.length cores)
           (100. *. R.max_utilization used ~cap));
      let names =
        List.map
          (fun cp -> Printf.sprintf "%s[%d]" cp.cp_system cp.cp_core)
          cores
      in
      let rec rows = function
        | [] -> ()
        | l ->
            let line, rest =
              if List.length l > 8 then
                (List.filteri (fun i _ -> i < 8) l,
                 List.filteri (fun i _ -> i >= 8) l)
              else (l, [])
            in
            Buffer.add_string buf ("  " ^ String.concat "  " line ^ "\n");
            rows rest
      in
      rows names)
    t.used_per_slr;
  Buffer.contents buf
