#include "net/loggp.hh"

#include "base/logging.hh"

namespace nowcluster {

void
LogGPParams::setDesiredOverheadUsec(double o_us)
{
    Tick desired = usec(o_us);
    Tick base = (oSend + oRecv) / 2;
    fatal_if(desired < base,
             "desired overhead %.1f us below hardware baseline %.1f us",
             o_us, toUsec(base));
    addedO = desired - base;
}

void
LogGPParams::setDesiredGapUsec(double g_us)
{
    Tick desired = usec(g_us);
    fatal_if(desired < gap && desired < usec(0.1),
             "desired gap %.1f us is not positive", g_us);
    // The gap knob programs the injection delay loop directly.
    gap = desired;
}

void
LogGPParams::setDesiredLatencyUsec(double l_us)
{
    Tick desired = usec(l_us);
    fatal_if(desired < latency,
             "desired latency %.1f us below hardware baseline %.1f us",
             l_us, toUsec(latency));
    addedL = desired - latency;
}

void
LogGPParams::setOccupancyUsec(double o_us)
{
    fatal_if(o_us < 0, "occupancy cannot be negative");
    occupancy = usec(o_us);
}

MachineConfig
MachineConfig::berkeleyNow()
{
    MachineConfig m;
    m.name = "Berkeley NOW";
    m.params.oSend = usec(1.8);
    m.params.oRecv = usec(4.0);
    m.params.gap = usec(5.8);
    m.params.latency = usec(5.0);
    m.params.setBulkMBps(38.0);
    return m;
}

MachineConfig
MachineConfig::intelParagon()
{
    MachineConfig m;
    m.name = "Intel Paragon";
    m.params.oSend = usec(1.4);
    m.params.oRecv = usec(2.2);
    m.params.gap = usec(7.6);
    m.params.latency = usec(6.5);
    m.params.setBulkMBps(141.0);
    return m;
}

MachineConfig
MachineConfig::meikoCs2()
{
    MachineConfig m;
    m.name = "Meiko CS-2";
    m.params.oSend = usec(1.3);
    m.params.oRecv = usec(2.1);
    m.params.gap = usec(13.6);
    m.params.latency = usec(7.5);
    m.params.setBulkMBps(47.0);
    return m;
}

bool
MachineConfig::byKey(const std::string &key, MachineConfig &out)
{
    if (key == "now")
        out = berkeleyNow();
    else if (key == "paragon")
        out = intelParagon();
    else if (key == "meiko")
        out = meikoCs2();
    else
        return false;
    return true;
}

} // namespace nowcluster
