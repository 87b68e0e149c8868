type point = {
  pt_cores : int;
  pt_fits : bool;
  pt_peak_utilization : float;
  pt_metric : float option;
}

let peak_utilization (fp : Floorplan.t) platform =
  Array.to_list fp.Floorplan.used_per_slr
  |> List.mapi (fun slr used ->
         let cap =
           (Platform.Device.slr_exn platform slr).Platform.Device.capacity
         in
         Platform.Resources.max_utilization used ~cap)
  |> List.fold_left Float.max 0.

let fit ?cache config platform =
  let elab () =
    match cache with
    | Some c -> Elaborate.Cache.elaborate c config platform
    | None -> Elaborate.elaborate config platform
  in
  match elab () with
  | (_ : Elaborate.t) -> Ok ()
  | exception (Failure m | Invalid_argument m) -> Error m

let sweep_cores ~config_of ?(max_cores = 48) ?metric platform =
  List.init max_cores (fun i ->
      let n = i + 1 in
      (* the floorplan-only oracle: cheap, and accepts configs the full
         DRC would warn (not error) about *)
      match Floorplan.place (config_of ~n_cores:n) platform with
      | exception Failure _ ->
          { pt_cores = n; pt_fits = false; pt_peak_utilization = 1.0;
            pt_metric = None }
      | fp ->
          {
            pt_cores = n;
            pt_fits = true;
            pt_peak_utilization = peak_utilization fp platform;
            pt_metric = Option.map (fun f -> f ~n_cores:n) metric;
          })

let best points =
  let fitting = List.filter (fun p -> p.pt_fits) points in
  match fitting with
  | [] -> None
  | _ ->
      Some
        (List.fold_left
           (fun acc p ->
             match (acc.pt_metric, p.pt_metric) with
             | Some a, Some b -> if b > a then p else acc
             | None, Some _ -> p
             | Some _, None -> acc
             | None, None -> if p.pt_cores > acc.pt_cores then p else acc)
           (List.hd fitting) fitting)

let render points =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %6s %10s %12s\n" "cores" "fits" "peak util" "metric");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-8d %6s %9.0f%% %12s\n" p.pt_cores
           (if p.pt_fits then "yes" else "no")
           (100. *. p.pt_peak_utilization)
           (match p.pt_metric with
           | Some m -> Printf.sprintf "%.3e" m
           | None -> "-")))
    points;
  Buffer.contents buf
