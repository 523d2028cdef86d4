//! Profile persistence: the paper's profiler hands the ART compiler "a
//! relatively concise (~10 KB)" artifact; this module serializes
//! [`Profile`]s the same way so profiling and compilation can run as
//! separate processes.

use std::fs;
use std::io;
use std::path::Path;

use crate::profile::Profile;

/// Saves a profile as pretty JSON.
///
/// # Errors
///
/// Propagates filesystem errors; serialization itself cannot fail for a
/// well-formed profile.
pub fn save_profile(profile: &Profile, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string_pretty(profile)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    fs::write(path, json)
}

/// Loads a profile saved with [`save_profile`].
///
/// # Errors
///
/// Fails on filesystem errors or malformed JSON.
pub fn load_profile(path: &Path) -> io::Result<Profile> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use critic_workloads::suite::Suite;
    use critic_workloads::{ExecutionPath, Trace};

    use super::*;
    use crate::profile::{Profiler, ProfilerConfig};

    #[test]
    fn profiles_round_trip_through_disk() {
        let mut app = Suite::Mobile.apps()[0].clone();
        app.params.num_functions = 20;
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, 9, 10_000);
        let trace = Trace::expand(&program, &path);
        let profile =
            Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);

        let dir = std::env::temp_dir().join("critic_profile_io_test");
        let _ = fs::create_dir_all(&dir);
        let file = dir.join("acrobat.profile.json");
        save_profile(&profile, &file).expect("saves");
        let loaded = load_profile(&file).expect("loads");
        assert_eq!(profile.chains.len(), loaded.chains.len());
        for (a, b) in profile.chains.iter().zip(&loaded.chains) {
            assert_eq!(
                (a.block, &a.uids, a.dynamic_count),
                (b.block, &b.uids, b.dynamic_count)
            );
        }
        // The artifact is compact, like the paper's ~10 KB profile.
        let bytes = fs::metadata(&file).expect("stat").len();
        assert!(bytes < 512 * 1024, "profile artifact is {bytes} bytes");
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn loading_garbage_fails_cleanly() {
        let dir = std::env::temp_dir().join("critic_profile_io_test");
        let _ = fs::create_dir_all(&dir);
        let file = dir.join("garbage.json");
        fs::write(&file, b"not json at all").expect("writes");
        assert!(load_profile(&file).is_err());
        let _ = fs::remove_file(&file);
        assert!(load_profile(&file).is_err(), "missing file errors too");
    }
}
