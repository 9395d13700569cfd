(* Per-domain fault-coverage measurement for the hardening passes.

   SWIFT and TMR were designed against the register-operand fault model:
   SWIFT assumes ECC-protected memory (loads copy the loaded value into
   the shadow, so a flipped arena byte corrupts both copies identically
   and no check fires), and neither pass protects the stored program.
   Measuring the same variants under the Mem and Code domains quantifies
   exactly that blind spot — which is why the rows carry the domain. *)

type row = {
  cv_variant : string;
  cv_domain : Core.Domain.t;
  cv_n : int;
  cv_sdc : float;
  cv_detected : float;  (* detected + hang + no-output, like `onebit harden` *)
  cv_benign : float;
}

let pct part whole = 100. *. float_of_int part /. float_of_int (max 1 whole)

let measure ?(domains = Core.Domain.all) ~variants ~n ~seed () =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun domain ->
          let spec = Core.Spec.single ~domain Core.Technique.Write in
          let r = Core.Campaign.run w spec ~n ~seed in
          {
            cv_variant = name;
            cv_domain = domain;
            cv_n = r.Core.Campaign.n;
            cv_sdc = Core.Campaign.sdc_pct r;
            cv_detected = pct (r.detected + r.hang + r.no_output) r.n;
            cv_benign = pct r.benign r.n;
          })
        domains)
    variants

let header = [ "variant"; "domain"; "n"; "sdc%"; "detected%"; "benign%" ]

let to_cells r =
  [
    r.cv_variant;
    Core.Domain.to_string r.cv_domain;
    string_of_int r.cv_n;
    Printf.sprintf "%.1f" r.cv_sdc;
    Printf.sprintf "%.1f" r.cv_detected;
    Printf.sprintf "%.1f" r.cv_benign;
  ]
