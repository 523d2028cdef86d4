//! Pins the differential oracle's exact outputs.
//!
//! Every Mobile app is compiled under each clean scheme (critic, hoist,
//! branch-pair, ideal, opp16, compress) and under each miscompile fault of
//! [`Fault::MISCOMPILES`], then validated against its baseline. The exact
//! [`ValidationReport`] of every clean variant and the exact
//! [`ValidationError`] of every faulted one — chain rank, uid, divergence
//! kind with its index, address and values, and the rendered text — are
//! compared against the table below. Any change to the oracle's execution
//! or comparison that moves a verdict, a step count or a first-diverging
//! location fails here.

use std::collections::HashSet;

use critic_compiler::{
    apply_compress, apply_critic_pass, apply_opp16, validate_transform, BaselineExecution,
    CriticPassOptions,
};
use critic_profiler::{Profiler, ProfilerConfig};
use critic_workloads::suite::Suite;
use critic_workloads::{inject_variant, BlockId, ExecutionPath, Fault, Trace};

const TRACE_LEN: usize = 20_000;
const PATH_SEED: u64 = 21;
const INPUT_SEED: u64 = 7;

/// Renders one line per (app, variant) outcome.
fn render_app(app_index: usize) -> Vec<String> {
    let mut app = Suite::Mobile.apps()[app_index].clone();
    app.params.num_functions = 40;
    let name = app.name.clone();
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, PATH_SEED, TRACE_LEN);
    let trace = Trace::expand(&program, &path);
    let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &trace);
    let ideal = Profiler::new(ProfilerConfig::ideal()).build_profile(&program, &trace);
    let baseline = BaselineExecution::capture(&program, &path, INPUT_SEED).expect("capture");

    let mut lines = Vec::new();
    let schemes = [
        ("critic", CriticPassOptions::default(), &profile),
        ("hoist", CriticPassOptions::hoist_only(), &profile),
        ("branch-pair", CriticPassOptions::branch_switch(), &profile),
        ("ideal", CriticPassOptions::ideal(), &ideal),
    ];
    for (scheme, opts, prof) in schemes {
        let mut variant = program.clone();
        apply_critic_pass(&mut variant, prof, opts);
        let result = baseline.validate_variant(&variant, &path, &prof.chains);
        // The one-shot entry point must agree with the captured baseline.
        assert_eq!(
            result,
            validate_transform(&program, &variant, &path, &prof.chains, INPUT_SEED),
            "{name} {scheme}: validate_transform disagrees with validate_variant"
        );
        lines.push(format!("{name} {scheme}: {result:?}"));
    }
    let mut opp = program.clone();
    apply_opp16(&mut opp, 3);
    let result = baseline.validate_variant(&opp, &path, &[]);
    lines.push(format!("{name} opp16: {result:?}"));
    let mut comp = program.clone();
    apply_compress(&mut comp);
    let result = baseline.validate_variant(&comp, &path, &[]);
    lines.push(format!("{name} compress: {result:?}"));

    let executed: HashSet<BlockId> = path.blocks.iter().copied().collect();
    for (i, fault) in Fault::MISCOMPILES.iter().copied().enumerate() {
        let mut variant = program.clone();
        apply_critic_pass(&mut variant, &profile, CriticPassOptions::default());
        let line = match inject_variant(&mut variant, fault, 100 + i as u64, &executed) {
            Err(e) => format!("{name} {fault}: not injected: {e:?}"),
            Ok(()) => match baseline.validate_variant(&variant, &path, &profile.chains) {
                Ok(report) => format!("{name} {fault}: escaped: {report:?}"),
                Err(err) => format!("{name} {fault}: {err:?} => {err}"),
            },
        };
        lines.push(line);
    }
    lines
}

fn check_app(app_index: usize) {
    let got = render_app(app_index);
    let name = &Suite::Mobile.apps()[app_index].name;
    let want: Vec<&str> = PINS
        .lines()
        .map(str::trim)
        .filter(|l| l.split_once(' ').is_some_and(|(app, _)| app == name))
        .collect();
    assert_eq!(
        got.len(),
        want.len(),
        "{name}: outcome count changed; rendered:\n{}",
        got.join("\n")
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g,
            w,
            "{name}: oracle outcome moved; rendered:\n{}",
            got.join("\n")
        );
    }
}

#[test]
fn oracle_outcomes_are_pinned_for_apps_0_to_4() {
    for app in 0..5 {
        check_app(app);
    }
}

#[test]
fn oracle_outcomes_are_pinned_for_apps_5_to_9() {
    for app in 5..10 {
        check_app(app);
    }
}

/// One line per outcome, rendered by `render_app` at 20k instructions.
const PINS: &str = r#"
Acrobat critic: Ok(ValidationReport { chains: 26, baseline_steps: 20006, variant_steps: 20665 })
Acrobat hoist: Ok(ValidationReport { chains: 26, baseline_steps: 20006, variant_steps: 20006 })
Acrobat branch-pair: Ok(ValidationReport { chains: 26, baseline_steps: 20006, variant_steps: 21324 })
Acrobat ideal: Ok(ValidationReport { chains: 28, baseline_steps: 20006, variant_steps: 20878 })
Acrobat opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20006, variant_steps: 21312 })
Acrobat compress: Ok(ValidationReport { chains: 0, baseline_steps: 20006, variant_steps: 21585 })
Acrobat clobbered-destination: ValidationError { chain: Some(7), uid: Some(InsnUid(4123)), kind: RegisterWrite { index: 0, baseline: Some((R1, 3884914030)), variant: Some((R1, 3441306320)) }, internal: None } => chain #7 (insn i4123): register write #0 diverges: baseline Some((R1, 3884914030)), variant Some((R1, 3441306320))
Acrobat dropped-member: ValidationError { chain: Some(12), uid: Some(InsnUid(3996)), kind: MissingInsn, internal: None } => chain #12 (insn i3996): writes in baseline only
Acrobat reordered-store: ValidationError { chain: Some(1), uid: Some(InsnUid(4179)), kind: RegisterWrite { index: 0, baseline: Some((R9, 2775337826)), variant: Some((R9, 2775337852)) }, internal: None } => chain #1 (insn i4179): register write #0 diverges: baseline Some((R9, 2775337826)), variant Some((R9, 2775337852))
Acrobat wrong-thumb-immediate: not injected: NoSite(WrongThumbImmediate)
Acrobat stale-source: escaped: ValidationReport { chains: 26, baseline_steps: 20006, variant_steps: 20665 }
Acrobat bad-cdp-length: ValidationError { chain: Some(6), uid: Some(InsnUid(4075)), kind: DecodeGap, internal: None } => chain #6 (insn i4075): 16-bit instruction not covered by a format switch
Angrybirds critic: Ok(ValidationReport { chains: 36, baseline_steps: 20012, variant_steps: 20588 })
Angrybirds hoist: Ok(ValidationReport { chains: 36, baseline_steps: 20012, variant_steps: 20012 })
Angrybirds branch-pair: Ok(ValidationReport { chains: 36, baseline_steps: 20012, variant_steps: 21164 })
Angrybirds ideal: Ok(ValidationReport { chains: 54, baseline_steps: 20012, variant_steps: 21089 })
Angrybirds opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 21031 })
Angrybirds compress: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 21902 })
Angrybirds clobbered-destination: ValidationError { chain: Some(11), uid: Some(InsnUid(3770)), kind: RegisterWrite { index: 0, baseline: Some((R4, 2363487068)), variant: Some((R6, 2363487068)) }, internal: None } => chain #11 (insn i3770): register write #0 diverges: baseline Some((R4, 2363487068)), variant Some((R6, 2363487068))
Angrybirds dropped-member: ValidationError { chain: Some(33), uid: Some(InsnUid(3632)), kind: MissingInsn, internal: None } => chain #33 (insn i3632): writes in baseline only
Angrybirds reordered-store: ValidationError { chain: Some(32), uid: Some(InsnUid(228)), kind: StoreSequence { addr: 268443996, index: 0, baseline: Some((InsnUid(228), 50333)), variant: Some((InsnUid(228), 57582)) }, internal: None } => chain #32 (insn i228): store #0 to 0x1000215c diverges: baseline Some((InsnUid(228), 50333)), variant Some((InsnUid(228), 57582))
Angrybirds wrong-thumb-immediate: ValidationError { chain: Some(34), uid: Some(InsnUid(3641)), kind: RegisterWrite { index: 0, baseline: Some((R3, 55)), variant: Some((R3, 75)) }, internal: None } => chain #34 (insn i3641): register write #0 diverges: baseline Some((R3, 55)), variant Some((R3, 75))
Angrybirds stale-source: ValidationError { chain: Some(1), uid: Some(InsnUid(3850)), kind: RegisterWrite { index: 0, baseline: Some((R4, 668283224)), variant: Some((R4, 0)) }, internal: None } => chain #1 (insn i3850): register write #0 diverges: baseline Some((R4, 668283224)), variant Some((R4, 0))
Angrybirds bad-cdp-length: ValidationError { chain: Some(8), uid: Some(InsnUid(3685)), kind: DecodeGap, internal: None } => chain #8 (insn i3685): 16-bit instruction not covered by a format switch
Browser critic: Ok(ValidationReport { chains: 85, baseline_steps: 20000, variant_steps: 20768 })
Browser hoist: Ok(ValidationReport { chains: 85, baseline_steps: 20000, variant_steps: 20000 })
Browser branch-pair: Ok(ValidationReport { chains: 85, baseline_steps: 20000, variant_steps: 21536 })
Browser ideal: Ok(ValidationReport { chains: 111, baseline_steps: 20000, variant_steps: 21177 })
Browser opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20000, variant_steps: 21917 })
Browser compress: Ok(ValidationReport { chains: 0, baseline_steps: 20000, variant_steps: 22619 })
Browser clobbered-destination: ValidationError { chain: Some(29), uid: Some(InsnUid(3655)), kind: RegisterWrite { index: 0, baseline: Some((R0, 0)), variant: Some((R6, 0)) }, internal: None } => chain #29 (insn i3655): register write #0 diverges: baseline Some((R0, 0)), variant Some((R6, 0))
Browser dropped-member: ValidationError { chain: Some(31), uid: Some(InsnUid(3876)), kind: MissingInsn, internal: None } => chain #31 (insn i3876): writes in baseline only
Browser reordered-store: ValidationError { chain: Some(69), uid: Some(InsnUid(2032)), kind: StoreSequence { addr: 268463900, index: 0, baseline: Some((InsnUid(2032), 190)), variant: Some((InsnUid(2032), 114)) }, internal: None } => chain #69 (insn i2032): store #0 to 0x10006f1c diverges: baseline Some((InsnUid(2032), 190)), variant Some((InsnUid(2032), 114))
Browser wrong-thumb-immediate: ValidationError { chain: Some(83), uid: Some(InsnUid(2560)), kind: RegisterWrite { index: 0, baseline: Some((R0, 22)), variant: Some((R0, 42)) }, internal: None } => chain #83 (insn i2560): register write #0 diverges: baseline Some((R0, 22)), variant Some((R0, 42))
Browser stale-source: escaped: ValidationReport { chains: 85, baseline_steps: 20000, variant_steps: 20768 }
Browser bad-cdp-length: ValidationError { chain: Some(59), uid: Some(InsnUid(1143)), kind: DecodeGap, internal: None } => chain #59 (insn i1143): 16-bit instruction not covered by a format switch
Facebook critic: Ok(ValidationReport { chains: 38, baseline_steps: 20012, variant_steps: 20724 })
Facebook hoist: Ok(ValidationReport { chains: 38, baseline_steps: 20012, variant_steps: 20012 })
Facebook branch-pair: Ok(ValidationReport { chains: 38, baseline_steps: 20012, variant_steps: 21436 })
Facebook ideal: Ok(ValidationReport { chains: 49, baseline_steps: 20012, variant_steps: 21022 })
Facebook opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 21206 })
Facebook compress: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 22251 })
Facebook clobbered-destination: ValidationError { chain: Some(2), uid: Some(InsnUid(3708)), kind: RegisterWrite { index: 0, baseline: Some((R5, 3884914031)), variant: Some((R6, 3884914031)) }, internal: None } => chain #2 (insn i3708): register write #0 diverges: baseline Some((R5, 3884914031)), variant Some((R6, 3884914031))
Facebook dropped-member: ValidationError { chain: Some(29), uid: Some(InsnUid(2541)), kind: MissingInsn, internal: None } => chain #29 (insn i2541): writes in baseline only
Facebook reordered-store: ValidationError { chain: Some(26), uid: Some(InsnUid(2344)), kind: StoreSequence { addr: 268456512, index: 0, baseline: Some((InsnUid(2344), 0)), variant: Some((InsnUid(2344), 4294967251)) }, internal: None } => chain #26 (insn i2344): store #0 to 0x10005240 diverges: baseline Some((InsnUid(2344), 0)), variant Some((InsnUid(2344), 4294967251))
Facebook wrong-thumb-immediate: ValidationError { chain: Some(34), uid: Some(InsnUid(2676)), kind: RegisterWrite { index: 0, baseline: Some((R1, 50)), variant: Some((R1, 70)) }, internal: None } => chain #34 (insn i2676): register write #0 diverges: baseline Some((R1, 50)), variant Some((R1, 70))
Facebook stale-source: ValidationError { chain: Some(32), uid: Some(InsnUid(3141)), kind: RegisterWrite { index: 0, baseline: Some((R8, 1539088868)), variant: Some((R8, 48)) }, internal: None } => chain #32 (insn i3141): register write #0 diverges: baseline Some((R8, 1539088868)), variant Some((R8, 48))
Facebook bad-cdp-length: ValidationError { chain: Some(8), uid: Some(InsnUid(3875)), kind: DecodeGap, internal: None } => chain #8 (insn i3875): 16-bit instruction not covered by a format switch
Email critic: Ok(ValidationReport { chains: 49, baseline_steps: 20017, variant_steps: 20592 })
Email hoist: Ok(ValidationReport { chains: 49, baseline_steps: 20017, variant_steps: 20017 })
Email branch-pair: Ok(ValidationReport { chains: 49, baseline_steps: 20017, variant_steps: 21167 })
Email ideal: Ok(ValidationReport { chains: 71, baseline_steps: 20017, variant_steps: 20735 })
Email opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20017, variant_steps: 21917 })
Email compress: Ok(ValidationReport { chains: 0, baseline_steps: 20017, variant_steps: 22707 })
Email clobbered-destination: ValidationError { chain: Some(21), uid: Some(InsnUid(728)), kind: RegisterWrite { index: 0, baseline: Some((R0, 3884914031)), variant: Some((R6, 3884914031)) }, internal: None } => chain #21 (insn i728): register write #0 diverges: baseline Some((R0, 3884914031)), variant Some((R6, 3884914031))
Email dropped-member: ValidationError { chain: Some(45), uid: Some(InsnUid(2318)), kind: MissingInsn, internal: None } => chain #45 (insn i2318): writes in baseline only
Email reordered-store: ValidationError { chain: Some(42), uid: Some(InsnUid(3080)), kind: StoreSequence { addr: 268467972, index: 0, baseline: Some((InsnUid(3080), 2159951632)), variant: Some((InsnUid(3080), 138919900)) }, internal: None } => chain #42 (insn i3080): store #0 to 0x10007f04 diverges: baseline Some((InsnUid(3080), 2159951632)), variant Some((InsnUid(3080), 138919900))
Email wrong-thumb-immediate: ValidationError { chain: Some(32), uid: Some(InsnUid(800)), kind: RegisterWrite { index: 0, baseline: Some((R6, 847371422)), variant: Some((R6, 847371442)) }, internal: None } => chain #32 (insn i800): register write #0 diverges: baseline Some((R6, 847371422)), variant Some((R6, 847371442))
Email stale-source: ValidationError { chain: Some(39), uid: Some(InsnUid(2420)), kind: RegisterWrite { index: 0, baseline: Some((R1, 4215571069)), variant: Some((R1, 3884914031)) }, internal: None } => chain #39 (insn i2420): register write #0 diverges: baseline Some((R1, 4215571069)), variant Some((R1, 3884914031))
Email bad-cdp-length: ValidationError { chain: Some(32), uid: Some(InsnUid(800)), kind: DecodeGap, internal: None } => chain #32 (insn i800): 16-bit instruction not covered by a format switch
Maps critic: Ok(ValidationReport { chains: 43, baseline_steps: 20012, variant_steps: 21041 })
Maps hoist: Ok(ValidationReport { chains: 43, baseline_steps: 20012, variant_steps: 20012 })
Maps branch-pair: Ok(ValidationReport { chains: 43, baseline_steps: 20012, variant_steps: 22070 })
Maps ideal: Ok(ValidationReport { chains: 72, baseline_steps: 20012, variant_steps: 21296 })
Maps opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 21785 })
Maps compress: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 22445 })
Maps clobbered-destination: ValidationError { chain: Some(13), uid: Some(InsnUid(4162)), kind: RegisterWrite { index: 0, baseline: Some((R4, 4021286911)), variant: Some((R6, 4021286911)) }, internal: None } => chain #13 (insn i4162): register write #0 diverges: baseline Some((R4, 4021286911)), variant Some((R6, 4021286911))
Maps dropped-member: ValidationError { chain: Some(37), uid: Some(InsnUid(1254)), kind: MissingInsn, internal: None } => chain #37 (insn i1254): writes in baseline only
Maps reordered-store: ValidationError { chain: Some(27), uid: Some(InsnUid(1207)), kind: StoreSequence { addr: 268458768, index: 0, baseline: Some((InsnUid(1207), 206)), variant: Some((InsnUid(1207), 0)) }, internal: None } => chain #27 (insn i1207): store #0 to 0x10005b10 diverges: baseline Some((InsnUid(1207), 206)), variant Some((InsnUid(1207), 0))
Maps wrong-thumb-immediate: ValidationError { chain: Some(37), uid: Some(InsnUid(1254)), kind: RegisterWrite { index: 0, baseline: Some((R1, 7)), variant: Some((R1, 27)) }, internal: None } => chain #37 (insn i1254): register write #0 diverges: baseline Some((R1, 7)), variant Some((R1, 27))
Maps stale-source: ValidationError { chain: Some(3), uid: Some(InsnUid(2665)), kind: RegisterWrite { index: 0, baseline: Some((R6, 3884914031)), variant: Some((R6, 3889135599)) }, internal: None } => chain #3 (insn i2665): register write #0 diverges: baseline Some((R6, 3884914031)), variant Some((R6, 3889135599))
Maps bad-cdp-length: ValidationError { chain: Some(16), uid: Some(InsnUid(3834)), kind: DecodeGap, internal: None } => chain #16 (insn i3834): 16-bit instruction not covered by a format switch
Music critic: Ok(ValidationReport { chains: 65, baseline_steps: 20010, variant_steps: 21058 })
Music hoist: Ok(ValidationReport { chains: 65, baseline_steps: 20010, variant_steps: 20010 })
Music branch-pair: Ok(ValidationReport { chains: 65, baseline_steps: 20010, variant_steps: 22106 })
Music ideal: Ok(ValidationReport { chains: 102, baseline_steps: 20010, variant_steps: 21982 })
Music opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20010, variant_steps: 21614 })
Music compress: Ok(ValidationReport { chains: 0, baseline_steps: 20010, variant_steps: 22984 })
Music clobbered-destination: ValidationError { chain: Some(58), uid: Some(InsnUid(678)), kind: RegisterWrite { index: 0, baseline: Some((R0, 10812)), variant: Some((R6, 10812)) }, internal: None } => chain #58 (insn i678): register write #0 diverges: baseline Some((R0, 10812)), variant Some((R6, 10812))
Music dropped-member: ValidationError { chain: Some(61), uid: Some(InsnUid(1061)), kind: MissingInsn, internal: None } => chain #61 (insn i1061): writes in baseline only
Music reordered-store: ValidationError { chain: Some(44), uid: Some(InsnUid(1898)), kind: StoreSequence { addr: 268453192, index: 0, baseline: Some((InsnUid(1898), 0)), variant: Some((InsnUid(1898), 2905590510)) }, internal: None } => chain #44 (insn i1898): store #0 to 0x10004548 diverges: baseline Some((InsnUid(1898), 0)), variant Some((InsnUid(1898), 2905590510))
Music wrong-thumb-immediate: ValidationError { chain: Some(2), uid: Some(InsnUid(4180)), kind: RegisterWrite { index: 0, baseline: Some((R2, 2759554748)), variant: Some((R2, 2759554768)) }, internal: None } => chain #2 (insn i4180): register write #0 diverges: baseline Some((R2, 2759554748)), variant Some((R2, 2759554768))
Music stale-source: ValidationError { chain: Some(25), uid: Some(InsnUid(3907)), kind: RegisterWrite { index: 0, baseline: Some((R0, 0)), variant: Some((R0, 1907229935)) }, internal: None } => chain #25 (insn i3907): register write #0 diverges: baseline Some((R0, 0)), variant Some((R0, 1907229935))
Music bad-cdp-length: ValidationError { chain: Some(42), uid: Some(InsnUid(1865)), kind: DecodeGap, internal: None } => chain #42 (insn i1865): 16-bit instruction not covered by a format switch
Office critic: Ok(ValidationReport { chains: 68, baseline_steps: 20002, variant_steps: 20779 })
Office hoist: Ok(ValidationReport { chains: 68, baseline_steps: 20002, variant_steps: 20002 })
Office branch-pair: Ok(ValidationReport { chains: 68, baseline_steps: 20002, variant_steps: 21556 })
Office ideal: Ok(ValidationReport { chains: 81, baseline_steps: 20002, variant_steps: 21105 })
Office opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20002, variant_steps: 21865 })
Office compress: Ok(ValidationReport { chains: 0, baseline_steps: 20002, variant_steps: 22420 })
Office clobbered-destination: ValidationError { chain: Some(8), uid: Some(InsnUid(4151)), kind: RegisterWrite { index: 0, baseline: Some((R3, 274776063)), variant: Some((R6, 274776063)) }, internal: None } => chain #8 (insn i4151): register write #0 diverges: baseline Some((R3, 274776063)), variant Some((R6, 274776063))
Office dropped-member: ValidationError { chain: Some(36), uid: Some(InsnUid(2435)), kind: MissingInsn, internal: None } => chain #36 (insn i2435): writes in baseline only
Office reordered-store: ValidationError { chain: Some(27), uid: Some(InsnUid(786)), kind: RegisterWrite { index: 0, baseline: Some((R10, 3609356950)), variant: Some((R10, 3340796043)) }, internal: None } => chain #27 (insn i786): register write #0 diverges: baseline Some((R10, 3609356950)), variant Some((R10, 3340796043))
Office wrong-thumb-immediate: ValidationError { chain: Some(52), uid: Some(InsnUid(3749)), kind: RegisterWrite { index: 0, baseline: Some((R4, 3523367347)), variant: Some((R4, 3523367327)) }, internal: None } => chain #52 (insn i3749): register write #0 diverges: baseline Some((R4, 3523367347)), variant Some((R4, 3523367327))
Office stale-source: ValidationError { chain: Some(40), uid: Some(InsnUid(3285)), kind: RegisterWrite { index: 0, baseline: Some((R2, 3884914031)), variant: Some((R2, 3884957055)) }, internal: None } => chain #40 (insn i3285): register write #0 diverges: baseline Some((R2, 3884914031)), variant Some((R2, 3884957055))
Office bad-cdp-length: ValidationError { chain: Some(58), uid: Some(InsnUid(3306)), kind: DecodeGap, internal: None } => chain #58 (insn i3306): 16-bit instruction not covered by a format switch
PhotoGallery critic: Ok(ValidationReport { chains: 31, baseline_steps: 20012, variant_steps: 20978 })
PhotoGallery hoist: Ok(ValidationReport { chains: 31, baseline_steps: 20012, variant_steps: 20012 })
PhotoGallery branch-pair: Ok(ValidationReport { chains: 31, baseline_steps: 20012, variant_steps: 21944 })
PhotoGallery ideal: Ok(ValidationReport { chains: 61, baseline_steps: 20012, variant_steps: 21861 })
PhotoGallery opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 21370 })
PhotoGallery compress: Ok(ValidationReport { chains: 0, baseline_steps: 20012, variant_steps: 22011 })
PhotoGallery clobbered-destination: ValidationError { chain: Some(1), uid: Some(InsnUid(3592)), kind: RegisterWrite { index: 0, baseline: Some((R4, 3884914031)), variant: Some((R6, 3884914031)) }, internal: None } => chain #1 (insn i3592): register write #0 diverges: baseline Some((R4, 3884914031)), variant Some((R6, 3884914031))
PhotoGallery dropped-member: ValidationError { chain: Some(22), uid: Some(InsnUid(3523)), kind: MissingInsn, internal: None } => chain #22 (insn i3523): writes in baseline only
PhotoGallery reordered-store: ValidationError { chain: Some(11), uid: Some(InsnUid(3577)), kind: StoreSequence { addr: 268504156, index: 0, baseline: Some((InsnUid(3577), 1621110112)), variant: Some((InsnUid(3577), 3271885163)) }, internal: None } => chain #11 (insn i3577): store #0 to 0x10010c5c diverges: baseline Some((InsnUid(3577), 1621110112)), variant Some((InsnUid(3577), 3271885163))
PhotoGallery wrong-thumb-immediate: ValidationError { chain: Some(3), uid: Some(InsnUid(3531)), kind: RegisterWrite { index: 0, baseline: Some((R3, 59)), variant: Some((R3, 79)) }, internal: None } => chain #3 (insn i3531): register write #0 diverges: baseline Some((R3, 59)), variant Some((R3, 79))
PhotoGallery stale-source: ValidationError { chain: Some(16), uid: Some(InsnUid(2257)), kind: RegisterWrite { index: 0, baseline: Some((R0, 3884914031)), variant: Some((R0, 3339583566)) }, internal: None } => chain #16 (insn i2257): register write #0 diverges: baseline Some((R0, 3884914031)), variant Some((R0, 3339583566))
PhotoGallery bad-cdp-length: ValidationError { chain: Some(13), uid: Some(InsnUid(3618)), kind: DecodeGap, internal: None } => chain #13 (insn i3618): 16-bit instruction not covered by a format switch
Youtube critic: Ok(ValidationReport { chains: 55, baseline_steps: 20002, variant_steps: 21292 })
Youtube hoist: Ok(ValidationReport { chains: 55, baseline_steps: 20002, variant_steps: 20002 })
Youtube branch-pair: Ok(ValidationReport { chains: 55, baseline_steps: 20002, variant_steps: 22582 })
Youtube ideal: Ok(ValidationReport { chains: 66, baseline_steps: 20002, variant_steps: 22063 })
Youtube opp16: Ok(ValidationReport { chains: 0, baseline_steps: 20002, variant_steps: 21958 })
Youtube compress: Ok(ValidationReport { chains: 0, baseline_steps: 20002, variant_steps: 22944 })
Youtube clobbered-destination: ValidationError { chain: Some(32), uid: Some(InsnUid(2656)), kind: RegisterWrite { index: 0, baseline: Some((R1, 3884914031)), variant: Some((R6, 3884914031)) }, internal: None } => chain #32 (insn i2656): register write #0 diverges: baseline Some((R1, 3884914031)), variant Some((R6, 3884914031))
Youtube dropped-member: ValidationError { chain: Some(32), uid: Some(InsnUid(2655)), kind: MissingInsn, internal: None } => chain #32 (insn i2655): writes in baseline only
Youtube reordered-store: ValidationError { chain: Some(35), uid: Some(InsnUid(1303)), kind: StoreSequence { addr: 268464220, index: 0, baseline: Some((InsnUid(1303), 3884914031)), variant: Some((InsnUid(1303), 680607665)) }, internal: None } => chain #35 (insn i1303): store #0 to 0x1000705c diverges: baseline Some((InsnUid(1303), 3884914031)), variant Some((InsnUid(1303), 680607665))
Youtube wrong-thumb-immediate: ValidationError { chain: Some(47), uid: Some(InsnUid(1601)), kind: RegisterWrite { index: 0, baseline: Some((R2, 60)), variant: Some((R2, 80)) }, internal: None } => chain #47 (insn i1601): register write #0 diverges: baseline Some((R2, 60)), variant Some((R2, 80))
Youtube stale-source: ValidationError { chain: Some(1), uid: Some(InsnUid(3895)), kind: RegisterWrite { index: 1, baseline: Some((R0, 410053477)), variant: Some((R0, 410053371)) }, internal: None } => chain #1 (insn i3895): register write #1 diverges: baseline Some((R0, 410053477)), variant Some((R0, 410053371))
Youtube bad-cdp-length: ValidationError { chain: Some(1), uid: Some(InsnUid(3898)), kind: DecodeGap, internal: None } => chain #1 (insn i3898): 16-bit instruction not covered by a format switch
"#;
