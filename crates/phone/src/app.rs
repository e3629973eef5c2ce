//! The Android app's state machine.
//!
//! "This app has two purposes: it provides an interface for the user to
//! start the blood test and provides a test progression feedback ... and
//! relays the measurements to the cloud infrastructure ... It also receives
//! the analysis outcomes and forwards them to MedSen device" (Sec. VI-D).
//! The app never sees plaintext: it shuttles ciphertext and progress ticks.

/// App lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// No accessory attached.
    Disconnected,
    /// AOAP handshake completed; prompting the user to start.
    Ready,
    /// Acquisition running; progress ticks arriving from the sensor.
    Testing,
    /// Compressing + uploading the encrypted measurements.
    Uploading,
    /// Waiting for the cloud's analysis result.
    AwaitingResult,
    /// Result relayed back to the sensor; session complete.
    Complete,
    /// A relay error occurred; user must restart the test.
    Failed,
}

/// Events driving the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// USB accessory detected and handshake finished.
    AccessoryAttached,
    /// USB unplugged.
    AccessoryDetached,
    /// User tapped "start blood test".
    StartPressed,
    /// The sensor reported acquisition progress (0–100).
    Progress(u8),
    /// The sensor finished acquiring; data is ready to relay.
    AcquisitionDone,
    /// Upload to the cloud finished.
    UploadDone,
    /// The cloud returned the analysis result.
    ResultReceived,
    /// Any transport error.
    TransportError,
}

/// The phone app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhoneApp {
    state: AppState,
    /// Latest progress percentage shown to the user.
    progress: u8,
}

impl PhoneApp {
    /// A freshly launched app.
    pub fn new() -> Self {
        Self {
            state: AppState::Disconnected,
            progress: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> AppState {
        self.state
    }

    /// Latest progress percentage.
    pub fn progress(&self) -> u8 {
        self.progress
    }

    /// Feeds one event; returns the new state. Illegal events for the
    /// current state are ignored (the UI can always receive stale ticks).
    pub fn handle(&mut self, event: AppEvent) -> AppState {
        use AppEvent as E;
        use AppState as S;
        self.state = match (self.state, event) {
            (_, E::AccessoryDetached) => {
                self.progress = 0;
                S::Disconnected
            }
            (_, E::TransportError) => S::Failed,
            (S::Disconnected, E::AccessoryAttached) => S::Ready,
            (S::Failed, E::AccessoryAttached) => S::Ready,
            (S::Ready, E::StartPressed) => {
                self.progress = 0;
                S::Testing
            }
            (S::Testing, E::Progress(p)) => {
                self.progress = p.min(100);
                S::Testing
            }
            (S::Testing, E::AcquisitionDone) => S::Uploading,
            (S::Uploading, E::UploadDone) => S::AwaitingResult,
            (S::AwaitingResult, E::ResultReceived) => S::Complete,
            (state, _) => state, // ignore out-of-order events
        };
        self.state
    }

    /// Runs a full happy-path session in one call (used by examples).
    pub fn run_happy_path(&mut self) -> AppState {
        for event in [
            AppEvent::AccessoryAttached,
            AppEvent::StartPressed,
            AppEvent::Progress(50),
            AppEvent::Progress(100),
            AppEvent::AcquisitionDone,
            AppEvent::UploadDone,
            AppEvent::ResultReceived,
        ] {
            self.handle(event);
        }
        self.state
    }
}

impl Default for PhoneApp {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_reaches_complete() {
        let mut app = PhoneApp::new();
        assert_eq!(app.run_happy_path(), AppState::Complete);
        assert_eq!(app.progress(), 100);
    }

    #[test]
    fn cannot_start_before_accessory_attaches() {
        let mut app = PhoneApp::new();
        assert_eq!(app.handle(AppEvent::StartPressed), AppState::Disconnected);
    }

    #[test]
    fn detach_resets_from_any_state() {
        let mut app = PhoneApp::new();
        app.handle(AppEvent::AccessoryAttached);
        app.handle(AppEvent::StartPressed);
        app.handle(AppEvent::Progress(70));
        assert_eq!(
            app.handle(AppEvent::AccessoryDetached),
            AppState::Disconnected
        );
        assert_eq!(app.progress(), 0);
    }

    #[test]
    fn transport_error_fails_then_recovers_on_reattach() {
        let mut app = PhoneApp::new();
        app.handle(AppEvent::AccessoryAttached);
        app.handle(AppEvent::StartPressed);
        assert_eq!(app.handle(AppEvent::TransportError), AppState::Failed);
        assert_eq!(app.handle(AppEvent::AccessoryAttached), AppState::Ready);
    }

    #[test]
    fn out_of_order_events_are_ignored() {
        let mut app = PhoneApp::new();
        app.handle(AppEvent::AccessoryAttached);
        // Result before upload: ignored.
        assert_eq!(app.handle(AppEvent::ResultReceived), AppState::Ready);
        assert_eq!(app.handle(AppEvent::UploadDone), AppState::Ready);
    }

    #[test]
    fn progress_is_clamped_to_100() {
        let mut app = PhoneApp::new();
        app.handle(AppEvent::AccessoryAttached);
        app.handle(AppEvent::StartPressed);
        app.handle(AppEvent::Progress(250));
        assert_eq!(app.progress(), 100);
    }

    #[test]
    fn progress_ticks_only_count_while_testing() {
        let mut app = PhoneApp::new();
        app.handle(AppEvent::Progress(40));
        assert_eq!(app.progress(), 0);
    }
}
