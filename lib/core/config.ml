type read_channel = {
  rc_name : string;
  rc_data_bytes : int;
  rc_burst_beats : int;
  rc_max_in_flight : int;
  rc_use_tlp : bool;
  rc_buffer_beats : int;
}

type write_channel = {
  wc_name : string;
  wc_data_bytes : int;
  wc_burst_beats : int;
  wc_max_in_flight : int;
  wc_use_tlp : bool;
  wc_buffer_beats : int;
}

type scratchpad = {
  sp_name : string;
  sp_data_bits : int;
  sp_n_datas : int;
  sp_init_from_memory : bool;
}

type intra_core_port = {
  ic_name : string;
  ic_to_system : string;
  ic_to_scratchpad : string;
}

type system = {
  sys_name : string;
  n_cores : int;
  read_channels : read_channel list;
  write_channels : write_channel list;
  scratchpads : scratchpad list;
  intra_core_ports : intra_core_port list;
  commands : Cmd_spec.command list;
  kernel_resources : Platform.Resources.t;
  kernel_circuit : Hw.Circuit.t option;
}

type t = { acc_name : string; systems : system list }

let positive what v = if v < 1 then invalid_arg ("Config: " ^ what ^ " must be positive")

let read_channel ?(burst_beats = 64) ?(max_in_flight = 4)
    ?(use_tlp = true) ?(buffer_beats = 256) ~name ~data_bytes () =
  positive "data_bytes" data_bytes;
  positive "burst_beats" burst_beats;
  positive "max_in_flight" max_in_flight;
  if buffer_beats < burst_beats then
    invalid_arg "Config: reader buffer smaller than one burst";
  {
    rc_name = name;
    rc_data_bytes = data_bytes;
    rc_burst_beats = burst_beats;
    rc_max_in_flight = max_in_flight;
    rc_use_tlp = use_tlp;
    rc_buffer_beats = buffer_beats;
  }

let write_channel ?(burst_beats = 64) ?(max_in_flight = 4)
    ?(use_tlp = true) ?(buffer_beats = 256) ~name ~data_bytes () =
  positive "data_bytes" data_bytes;
  positive "burst_beats" burst_beats;
  positive "max_in_flight" max_in_flight;
  if buffer_beats < burst_beats then
    invalid_arg "Config: writer buffer smaller than one burst";
  {
    wc_name = name;
    wc_data_bytes = data_bytes;
    wc_burst_beats = burst_beats;
    wc_max_in_flight = max_in_flight;
    wc_use_tlp = use_tlp;
    wc_buffer_beats = buffer_beats;
  }

let scratchpad ?(init_from_memory = false) ~name ~data_bits ~n_datas () =
  positive "data_bits" data_bits;
  positive "n_datas" n_datas;
  {
    sp_name = name;
    sp_data_bits = data_bits;
    sp_n_datas = n_datas;
    sp_init_from_memory = init_from_memory;
  }

let system ?(read_channels = []) ?(write_channels = []) ?(scratchpads = [])
    ?(intra_core_ports = []) ?(commands = [])
    ?(kernel_resources = Platform.Resources.zero) ?kernel_circuit ~name
    ~n_cores () =
  positive "n_cores" n_cores;
  {
    sys_name = name;
    n_cores;
    read_channels;
    write_channels;
    scratchpads;
    intra_core_ports;
    commands;
    kernel_resources;
    kernel_circuit;
  }

let check_unique what names =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Config: duplicate %s %S" what n);
      Hashtbl.add seen n ())
    names

let make ~name systems =
  if systems = [] then invalid_arg "Config.make: no systems";
  check_unique "system" (List.map (fun s -> s.sys_name) systems);
  List.iter
    (fun s ->
      check_unique
        ("channel in " ^ s.sys_name)
        (List.map (fun rc -> rc.rc_name) s.read_channels
        @ List.map (fun wc -> wc.wc_name) s.write_channels);
      check_unique
        ("scratchpad in " ^ s.sys_name)
        (List.map (fun sp -> sp.sp_name) s.scratchpads);
      check_unique
        ("command in " ^ s.sys_name)
        (List.map (fun c -> c.Cmd_spec.cmd_name) s.commands);
      check_unique
        ("funct in " ^ s.sys_name)
        (List.map (fun c -> string_of_int c.Cmd_spec.cmd_funct) s.commands))
    systems;
  { acc_name = name; systems }

let total_cores t = List.fold_left (fun acc s -> acc + s.n_cores) 0 t.systems
